"""Channel, sharing, and two-backend execution tests.

The core check is differential: both secure backends must agree with the
overlap predicate of the rules, and with the template's plaintext on any
input bits, at every width and lane count we throw at them, and their
transcripts must show the promised round counts and phase separation.
"""

from __future__ import annotations

import random
import re
import socket
import struct
import threading
import time
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from scipy import stats

from prelude.circuits import build_batch_query
from prelude.rules import TernaryRule, enumerate_rules, overlaps, random_rule
from prelude.smpc import (
    ChannelClosed,
    ChannelTimeout,
    KIND_NAMES,
    MSG_AND_OPENING,
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
    MSG_INPUT_SHARE,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    ProtocolError,
    SessionTranscript,
    TcpChannel,
    dealer_for_circuit,
    drive,
    encode_frame,
    evaluate_steps,
    first_steps,
    garble_steps,
    gmw_steps,
    open_steps,
    recorded,
    recv_frame,
    release_steps,
    reveal_steps,
    run_pair,
    send_frame,
)
from prelude.smpc import gmw, yao
from prelude.smpc.aes import Aes128, Aes128Ecb, pinned
from prelude.smpc.channel import MAX_FRAME_BYTES, RECV
from prelude.smpc.shares import (
    broadcast,
    draw_symbols,
    pair_indicators,
    symbol_difference,
    table_entries,
)


def pack(values, width: int) -> int:
    """Fields of ``width`` bits, ``values[0]`` in the lowest."""
    return sum(value << (i * width) for i, value in enumerate(values))


def unpack(word: int, width: int, count: int) -> list[int]:
    """Inverse of :func:`pack`: ``count`` fields of ``width`` bits."""
    return [(word >> (i * width)) & ((1 << width) - 1) for i in range(count)]


def rule_inputs(q, holders) -> tuple[int, int]:
    """Level-1 words of both parties: the querier's rule, and holder rule
    i in lane i."""
    circuit = build_batch_query(q.width)
    return circuit.word(0, [q]), circuit.word(1, holders)


def overlap_case(width: int, lanes: int, rng: random.Random, q=None):
    """Both parties' words for querier rule ``q`` (a random rule by
    default) and ``lanes`` holder rules, and the template's plaintext
    output per lane, 0 where the rules overlap.

    Random wide rules almost never overlap, so a holder rule is as often
    the querier's own rule, the wildcard or the querier's rule with pins
    dropped as a random rule.
    """
    q = random_rule(width, rng) if q is None else q
    holders = [rng.choice((
        q, TernaryRule.wildcard(width),
        TernaryRule(width, q.pattern, q.mask & rng.getrandbits(width)),
        random_rule(width, rng))) for _ in range(lanes)]
    inputs0, inputs1 = rule_inputs(q, holders)
    return inputs0, inputs1, tuple(int(not overlaps(q, h)) for h in holders)


def random_inputs(circuit, rng: random.Random, lanes: int = 1,
                  sparse: int = 1, symbols: bool = True) -> tuple[int, int]:
    """Random words of both parties, which need not come from rules: a bit
    per gate for the querier and a field of ``lanes`` bits per gate for
    the holder.  Each bit is 1 with probability ``2 ** -sparse``, except
    that where ``symbols`` no querier cell reads 3, as gmw requires: its
    bit w + j is cleared where its bit j is set."""

    def word(width):
        fields = []
        for _ in range(2 * circuit.width):
            value = (1 << width) - 1
            for _ in range(sparse):
                value &= rng.getrandbits(width)
            fields.append(value)
        return pack(fields, width)

    querier = word(1)
    if symbols:
        w = circuit.width
        querier &= ~((querier & ((1 << w) - 1)) << w)
    return querier, word(lanes)


def plaintext(circuit, inputs0, inputs1, lanes: int,
              cell=int.__xor__) -> tuple:
    """The template's output per lane: 1 where some cell
    ``cell(q_one·h_zero, q_zero·h_one)`` is 1, gate j < w reading the
    querier's q_one[j] and the holder's h_zero[j], gate w + j q_zero[j]
    and h_one[j]."""
    w = circuit.width
    q = unpack(inputs0, 1, 2 * w)
    h = unpack(inputs1, lanes, 2 * w)
    out = 0
    for j in range(w):
        out |= cell(q[j] * h[j], q[w + j] * h[w + j])
    return tuple((out >> i) & 1 for i in range(lanes))


class Frame(NamedTuple):
    direction: str  # "sent" or "received"
    kind: int
    n_bytes: int
    phase: str  # "setup" or "online"
    round_index: int  # 0 in the setup phase


class NotedTranscript(SessionTranscript):
    """A transcript that reads its counters after each frame it records and
    notes the frame in :attr:`frames`: its phase is the byte counter it
    grew, and an online frame's round is the round count after it."""

    def __init__(self) -> None:
        super().__init__()
        self.frames: list[Frame] = []

    def _note(self, direction, record, kind, n_bytes):
        setup, online = self.setup_bytes, self.online_bytes
        record(kind, n_bytes)
        if self.setup_bytes == setup + n_bytes:
            assert self.online_bytes == online
            self.frames.append(Frame(direction, kind, n_bytes, "setup", 0))
        else:
            assert self.online_bytes == online + n_bytes
            self.frames.append(Frame(direction, kind, n_bytes, "online",
                                     self.online_rounds))

    def record_send(self, kind, n_bytes):
        self._note("sent", super().record_send, kind, n_bytes)

    def record_receive(self, kind, n_bytes):
        self._note("received", super().record_receive, kind, n_bytes)


BIT_VALUES = (b"\x00", b"\x01")  # what each output releases, for 0 and 1


def party_steps(circuit, backend, party, inputs, mat, *, garble_rng=None):
    """One party of a session; returns the output bits it learns, or None.

    Only party 0 learns the outputs, one byte per output and lane: under
    gmw party 1 releases the bytes 0 and 1 for each, and under yao, which
    runs only the comparator template, the byte 0 where the key sums agree,
    and party 0 opens the byte 1 where they do not.  Party 0 starts with
    its first online frame, as a querier sends it with its envelope.  The
    lane count is the one ``mat`` was dealt for.
    """
    lanes = mat.lanes
    if party == 0:
        yield from first_steps(circuit, inputs, mat)
    if backend == "gmw":
        shares = yield from gmw_steps(circuit, party, inputs, mat)
        if party == 1:
            yield from reveal_steps(shares, mat, receive=False,
                                    values=[BIT_VALUES[0]] * lanes,
                                    dummy=BIT_VALUES[1])
            return None
        opened = yield from reveal_steps(shares, mat, receive=True)
    elif party == 1:
        sums = yield from garble_steps(circuit, inputs, mat, garble_rng)
        yield from release_steps(sums, [BIT_VALUES[0]] * lanes)
        return None
    else:
        sums = yield from evaluate_steps(circuit, inputs, mat)
        opened = yield from open_steps(sums, lanes, BIT_VALUES[1])
    return tuple(value[0] for value in opened)


def run_backend(circuit, backend, inputs0, inputs1, *, seed=7, delay=0.0,
                tap0=None, lanes=1):
    """Run both parties in this thread; returns (out0, out1, t0, t1).

    Party 0 starts, and ``tap0`` sees every frame it sends or receives
    (:func:`tapped`).  Each transcript counts its party's dealer material
    as setup bytes and then records its frames, and notes each one.
    """
    mat0, mat1 = dealer_for_circuit(circuit, backend, random.Random(seed),
                                    lanes=lanes, size=1)
    t0, t1 = NotedTranscript(), NotedTranscript()
    for t, mat in ((t0, mat0), (t1, mat1)):
        t.setup_bytes += mat.serialized_size
    party0 = recorded(party_steps(circuit, backend, 0, inputs0, mat0), t0)
    out0, out1, _ = run_pair(
        party0 if tap0 is None else tapped(party0, tap0),
        recorded(party_steps(circuit, backend, 1, inputs1, mat1,
                             garble_rng=random.Random(seed + 1)), t1),
        delay)
    return out0, out1, t0, t1


def tcp_pair() -> tuple[TcpChannel, TcpChannel]:
    """The connecting and the accepting end of a new loopback TCP
    connection, each a channel."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        client = socket.create_connection(server.getsockname())
        conn, _ = server.accept()
    return TcpChannel(client), TcpChannel(conn)


def run_over_tcp(backend):
    """Both parties of a width-8 comparison over a TCP connection, party 1
    in a thread of its own; asserts what each learns."""
    circuit = build_batch_query(8)
    rng = random.Random(21)
    inputs0, inputs1, expected = overlap_case(8, 1, rng)
    mat0, mat1 = dealer_for_circuit(circuit, backend, rng, size=1)
    ch1, ch0 = tcp_pair()
    out1 = []

    def peer():
        try:
            out1.append(drive(party_steps(circuit, backend, 1, inputs1, mat1,
                                          garble_rng=random.Random(22)), ch1))
        finally:
            ch1.close()

    thread = threading.Thread(target=peer)
    thread.start()
    try:
        out0 = drive(party_steps(circuit, backend, 0, inputs0, mat0), ch0)
    finally:
        ch0.close()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert out0 == expected
    assert out1 == [None]


# --------------------------------------------------------------------------
# sharing primitives


class TestShares:
    def test_broadcast_copies_each_bit_to_its_field(self):
        rng = random.Random(12)
        # numerals in each base 2 to 32, both sides of 8 lanes, and both
        # sides of the longest numeral parsed, from 8 lanes on: 208 fields
        # over 8 lanes are 416 base-16 digits, over 11 lanes 2288 bits
        for n, lanes in ((1, 1), (5, 1), (13, 3), (13, 4), (26, 5), (9, 6),
                         (208, 7), (208, 8), (104, 10), (208, 11),
                         (208, 55), (208, 56), (208, 500), (3, 500), (0, 3)):
            bits = rng.getrandbits(n)
            assert broadcast(bits, n, lanes) == pack(
                [((bits >> i) & 1) * ((1 << lanes) - 1) for i in range(n)],
                lanes)
        assert broadcast(0b101, 0, 4) == 0

    @staticmethod
    def symbols(planes: int, n: int) -> list[int]:
        """The symbols of Z3 that two bit planes of ``n`` bits hold."""
        return [(planes >> j & 1) + 2 * (planes >> n + j & 1)
                for j in range(n)]

    def test_drawn_symbols_are_uniform_and_never_3(self):
        rng = random.Random(14)
        drawn = [symbol for _ in range(300)
                 for symbol in self.symbols(draw_symbols(rng, 20), 20)]
        assert 3 not in drawn
        _, p_value = stats.chisquare([drawn.count(v) for v in range(3)])
        assert p_value > 1e-4
        assert draw_symbols(rng, 0) == 0

    def test_symbol_difference_subtracts_in_z3(self):
        # every pair of symbols, side by side in nine positions
        pairs = [(x, u) for x in range(3) for u in range(3)]
        x = pack([x & 1 for x, _ in pairs] + [x >> 1 for x, _ in pairs], 1)
        u = pack([u & 1 for _, u in pairs] + [u >> 1 for _, u in pairs], 1)
        assert self.symbols(symbol_difference(x, u, 9), 9) == [
            (x - u) % 3 for x, u in pairs]

    @pytest.mark.parametrize("width,lanes", [(1, 1), (4, 3), (7, 2),
                                             (104, 5), (104, 60)])
    def test_pairs_read_their_entries(self, width, lanes):
        # Pair g's cells are g and g + ceil(w / 2), a phantom cell reading
        # 0 past an odd width; its entry in each lane is the table's slice
        # 3 a + b for the cells' symbols a and b.
        rng = random.Random(width * lanes)
        pairs = (width + 1) // 2
        nb = pairs * lanes
        planes = draw_symbols(rng, width)
        symbols = self.symbols(planes, width) + [0]
        rows, columns = pair_indicators(planes, width, lanes)
        for g in range(pairs):
            a, b = symbols[g], symbols[min(g + pairs, width)]
            for v in range(3):
                assert unpack(rows[v], lanes, pairs)[g] == (
                    (1 << lanes) - 1 if v == a else 0)
                assert unpack(columns[v], lanes, pairs)[g] == (
                    (1 << lanes) - 1 if v == b else 0)
        table = rng.getrandbits(9 * nb)
        got = unpack(table_entries(table, rows, columns, nb), lanes, pairs)
        slices = unpack(table, nb, 9)
        assert got == [unpack(slices[3 * symbols[g]
                                     + symbols[min(g + pairs, width)]],
                              lanes, pairs)[g] for g in range(pairs)]


# --------------------------------------------------------------------------
# channels


class TestChannels:
    def test_frame_encoding(self):
        assert encode_frame(5, b"ab") == b"\x00\x00\x00\x03\x05ab"

    def test_loopback_round_trip(self):
        # each side is resumed with a frame's on-wire size, header included
        def ping():
            size = yield from send_frame(MSG_OUTPUT_SHARE, b"xyz")
            return size, (yield RECV)

        def echo():
            payload = yield from recv_frame(MSG_OUTPUT_SHARE)
            return (yield from send_frame(MSG_OUTPUT_SHARE, payload))

        (sent, got), echoed, flights = run_pair(ping(), echo())
        assert got == (MSG_OUTPUT_SHARE, b"xyz", 4 + 1 + 3)
        assert sent == echoed == 4 + 1 + 3
        assert flights == 2

    def test_loopback_close_unblocks_peer(self):
        # a party waiting for a frame once its peer has ended sees the
        # channel close
        def hangs_up():
            return
            yield

        def waits():
            yield from recv_frame(1)

        for pair in ((hangs_up(), waits()), (waits(), hangs_up())):
            with pytest.raises(ChannelClosed, match="peer closed the channel"):
                run_pair(*pair)

    def test_tcp_timeout(self):
        end, other = socket.socketpair()
        ch = TcpChannel(end, timeout=0.05)
        try:
            with pytest.raises(ChannelTimeout):
                ch.recv()
        finally:
            ch.close()
            other.close()

    def test_loopback_delay_is_enforced(self):
        def ping():
            yield from send_frame(1, b"ping")
            return (yield from recv_frame(1))

        def pong():
            payload = yield from recv_frame(1)
            yield from send_frame(1, payload[::-1])

        start = time.monotonic()
        assert run_pair(ping(), pong(), 0.05)[0] == b"gnip"
        assert time.monotonic() - start >= 0.1

    def test_run_pair_delay_and_both_results(self):
        # the party that starts waits for the other's first frame
        def answers():
            yield from recv_frame(1)
            yield from send_frame(1, b"pong")
            return b"done"

        def peer():
            yield from send_frame(1, b"ping")
            return (yield from recv_frame(1))

        start = time.monotonic()
        assert run_pair(answers(), peer(), 0.05) == (b"done", b"pong", 2)
        assert time.monotonic() - start >= 0.1

    def test_run_pair_sends_back_to_back_frames_in_one_flight(self):
        # A party runs on until it waits, so a second frame it sends before
        # its first receive leaves with the first, not one delay later.
        def sends_two():
            yield from send_frame(1, b"a")
            yield from send_frame(1, b"b")

        def takes_two():
            got = [(yield from recv_frame(1)), (yield from recv_frame(1))]
            return got, time.monotonic()

        delay = 0.2
        start = time.monotonic()
        _, (got, took), flights = run_pair(sends_two(), takes_two(), delay)
        assert got == [b"a", b"b"]
        assert delay <= took - start < 2 * delay
        assert flights == 1

    def test_run_pair_raises_the_first_failure(self):
        # whichever party starts, the peer's failure is raised, not the
        # closed channel the waiting party would see after it
        def breaks():
            yield from send_frame(1, b"x")
            raise ValueError("peer broke")

        def waits():
            yield from recv_frame(1)
            yield from recv_frame(1)

        for pair in ((breaks(), waits()), (waits(), breaks())):
            with pytest.raises(ValueError, match="peer broke"):
                run_pair(*pair)

    def test_run_pair_detects_both_parties_waiting(self):
        def waits():
            yield from recv_frame(1)

        with pytest.raises(ProtocolError,
                           match="both parties are waiting for a frame"):
            run_pair(waits(), waits())

    def test_tcp_refuses_a_frame_over_the_cap_before_its_body(self):
        end, other = socket.socketpair()
        receiver = TcpChannel(end, timeout=5)
        try:
            # a header announcing 64 MiB, then the first bytes of its body
            other.sendall(struct.pack(">I", 64 << 20) + b"body")
            with pytest.raises(ProtocolError, match=(
                    f"frame of {4 + (64 << 20)} bytes exceeds the cap of "
                    f"{MAX_FRAME_BYTES} bytes")):
                receiver.recv()
            assert end.recv(16) == b"body"  # left unread
        finally:
            receiver.close()
            other.close()

    def test_tcp_reads_a_frame_of_several_megabytes(self):
        end, other = socket.socketpair()
        receiver, sender = TcpChannel(end, timeout=30), TcpChannel(other)
        payload = random.Random(3).randbytes(6 << 20)
        thread = threading.Thread(target=sender.send,
                                  args=(MSG_GARBLED_TABLES, payload))
        thread.start()
        try:
            got = receiver.recv()
        finally:
            thread.join(timeout=30)
            receiver.close()
            sender.close()
        assert not thread.is_alive()
        assert got == (MSG_GARBLED_TABLES, payload, 5 + len(payload))

    def test_tcp_round_trip(self):
        client, server = tcp_pair()
        try:
            client.send(2, b"hello")
            kind, payload, _ = server.recv()
            assert (kind, payload) == (2, b"hello")
            server.send(kind, payload[::-1])
            assert client.recv()[1] == b"olleh"
        finally:
            client.close()
            server.close()


# --------------------------------------------------------------------------
# transcripts: phases and rounds from the frames alone


def scripted(ops):
    """A party that sends or receives a one-byte frame per ("send" |
    "recv", kind) of ``ops``, in turn."""
    for op, kind in ops:
        if op == "send":
            yield from send_frame(kind, b"x")
        else:
            yield from recv_frame(kind)


def scripted_pair(ops, t0=None):
    """Run party 0 on ``ops`` against its mirror, both under ``recorded``;
    returns (party 0's transcript, party 1's)."""
    mirror = [("recv" if op == "send" else "send", kind) for op, kind in ops]
    t0 = NotedTranscript() if t0 is None else t0
    t1 = NotedTranscript()
    run_pair(recorded(scripted(ops), t0), recorded(scripted(mirror), t1))
    return t0, t1


FRAME = 4 + 1 + 1  # header, kind and one payload byte


class TestTranscriptRounds:
    def test_a_second_frame_the_same_way_opens_the_next_round(self):
        ops = [("send", MSG_AND_OPENING), ("recv", MSG_AND_OPENING)] * 2
        for t in scripted_pair(ops):
            assert t.online_rounds == 2
            assert [e.round_index for e in t.frames] == [1, 1, 2, 2]
            assert t.online_bytes == 4 * FRAME

    def test_send_receive_receive_is_two_rounds(self):
        ops = [("send", MSG_INPUT_SHARE), ("recv", MSG_LABELS),
               ("recv", MSG_OUTPUT_SHARE)]
        for t in scripted_pair(ops):
            assert t.online_rounds == 2
            assert [e.round_index for e in t.frames] == [1, 1, 2]

    def test_setup_kinds_and_dealer_material_stay_at_round_0(self):
        t0 = NotedTranscript()
        t0.setup_bytes += 100  # dealer material, which no frame carries
        ops = [("send", MSG_ENVELOPE), ("recv", MSG_ENVELOPE_ACK),
               ("recv", MSG_GARBLED_TABLES), ("send", MSG_AND_OPENING),
               ("recv", MSG_AND_OPENING)]
        t0, t1 = scripted_pair(ops, t0)
        assert [(e.phase, e.round_index) for e in t0.frames] == (
            [("setup", 0)] * 3 + [("online", 1)] * 2)
        assert (t0.setup_bytes, t0.online_bytes) == (100 + 3 * FRAME,
                                                     2 * FRAME)
        assert (t1.setup_bytes, t1.online_bytes) == (3 * FRAME, 2 * FRAME)
        assert t0.online_rounds == t1.online_rounds == 1

    def test_no_online_frame_is_no_round_and_no_online_time(self):
        ops = [("send", MSG_ENVELOPE), ("recv", MSG_ENVELOPE_ACK)]
        for t in scripted_pair(ops):
            assert t.online_finished_at is not None  # finished on return
            assert t.online_rounds == 0
            assert t.online_wall_time == 0.0
            assert t.online_bytes == 0


# --------------------------------------------------------------------------
# dealer material


def first_step(backend: str, party: int, material):
    """Start ``backend``'s party ``party`` on ``material``, with random
    words of the width-4 template over 3 lanes."""
    circuit = build_batch_query(4)
    word = random_inputs(circuit, random.Random(3), 3)[party]
    if backend == "gmw":
        steps = gmw_steps(circuit, party, word, material)
    elif party == 0:
        steps = evaluate_steps(circuit, word, material)
    else:
        steps = garble_steps(circuit, word, material, random.Random(1))
    return next(steps)


def deal(backend: str, width: int = 4, lanes: int = 3, levels=None):
    """Both parties' material for the template of ``width`` over
    ``lanes``, or for the level plan ``levels`` with that template's width
    and tree arities where given."""
    plan = build_batch_query(width)
    if levels is not None:
        plan = SimpleNamespace(width=width, arities=plan.arities,
                               plan=lambda backend: levels)
    return dealer_for_circuit(plan, backend, random.Random(4), lanes)


def dealt(material) -> str:
    """What ``material`` was dealt for, as a refusal names it."""
    return (f"{material.backend} party {material.party}, width "
            f"{material.width}, levels {material.levels}")


def refused(backend: str, party: int, material):
    """Expect :func:`first_step` to refuse ``material``, not dealt for the
    width-4 template."""
    plan = build_batch_query(4).plan(backend)
    return pytest.raises(ValueError, match=re.escape(
        f"dealer material for {dealt(material)}, does not fit {backend} "
        f"party {party}, width 4, levels {plan}"))


class TestDealer:
    def test_triples_multiply_correctly(self):
        # each tree level's shares XOR to the AND m_S of the masks in S, for
        # every non-empty S, in slice S; the singletons are the masks
        circuit = build_batch_query(104)
        lanes = 3
        mat0, mat1 = dealer_for_circuit(circuit, "gmw", random.Random(1),
                                        lanes=lanes)
        assert len(mat0.tree) == len(mat1.tree) == len(circuit.levels) - 1
        for gates, arity, s0, s1 in zip(circuit.levels[1:], circuit.arities,
                                        mat0.tree, mat1.tree):
            nb = gates * lanes
            products = unpack(s0 ^ s1, nb, 1 << arity)
            assert (s0 ^ s1) >> (nb << arity) == 0
            assert s0 & ((1 << nb) - 1) == s1 & ((1 << nb) - 1) == 0
            masks = [products[1 << i] for i in range(arity)]
            for subset in range(1, 1 << arity):
                want = (1 << nb) - 1
                for i in range(arity):
                    if subset >> i & 1:
                        want &= masks[i]
                assert products[subset] == want, (gates, subset)

    def test_transfer_material_is_consistent(self):
        # yao's 8 transfers at width 4, one per querier input
        mat0, mat1 = dealer_for_circuit(build_batch_query(4), "yao",
                                        random.Random(2))
        (d, pad), (r0, r1) = mat0.transfer, mat1.transfer
        assert 0 < d < 0xff  # both choices occur
        for i in range(8):
            lane = 128 * i
            assert (pad >> lane) & ((1 << 128) - 1) == (
                (r1 if (d >> i) & 1 else r0) >> lane) & ((1 << 128) - 1)

    @pytest.mark.parametrize("width,lanes", [(1, 1), (8, 5), (208, 33)])
    def test_lookup_pads_select_by_the_shifts(self, width, lanes):
        # The lookup level rests on this alone: the querier's shift u is a
        # symbol of Z3 per cell, and its pad of pair g and lane i is the
        # holder's pad of entry (u_g, u_{g + ceil(w / 2)}), r XORed in
        # with either, checked here bit by bit.  An odd width's phantom
        # cell reads 0.
        circuit = build_batch_query(width)
        mat0, mat1 = dealer_for_circuit(circuit, "gmw",
                                        random.Random(width + lanes), lanes)
        (u, chosen, indicators), (padded, r) = mat0.lookup, mat1.lookup
        assert indicators == pair_indicators(u, width, lanes)
        pairs = (width + 1) // 2
        nb = pairs * lanes
        assert u < 1 << 2 * width and chosen < 1 << nb
        assert padded < 1 << 9 * nb and r < 1 << nb
        symbols = [(u >> j & 1) + 2 * (u >> width + j & 1)
                   for j in range(width)] + [0]
        assert 3 not in symbols
        for g in range(pairs):
            a, b = symbols[g], symbols[min(g + pairs, width)]
            for i in range(lanes):
                bit = g * lanes + i
                assert chosen >> bit & 1 == (
                    padded >> (3 * a + b) * nb + bit ^ r >> bit) & 1

    def test_stream_exhaustion(self):
        # material cannot run short mid-run: a run takes its lane count
        # from its material, so a holder word over more lanes than were
        # dealt is refused before the first step (the querier's word is
        # one bit per gate at any lane count)
        for backend in ("gmw", "yao"):
            good, fewer = deal(backend), deal(backend, lanes=2)
            for party in (0, 1):
                first_step(backend, party, good[party])
            with pytest.raises(ValueError, match="must fit"):
                first_step(backend, 1, fewer[1])

    def test_material_for_another_party_or_plan_is_refused(self):
        # every backend entry point checks the plan its material was dealt
        # for: the backend, the party and the level plan
        for backend, other in (("gmw", "yao"), ("yao", "gmw")):
            good, theirs = deal(backend), deal(other)
            wider = deal(backend, width=5)
            for party in (0, 1):
                first_step(backend, party, good[party])
                for material in (good[1 - party], theirs[party],
                                 wider[party]):
                    with refused(backend, party, material):
                        first_step(backend, party, material)


# --------------------------------------------------------------------------
# GMW backend


class TestGmw:
    def test_matches_plaintext_on_random_circuits(self):
        # templates of random widths on random input bits, which need not
        # form rules: a holder may pin a bit both ways, and its cell then
        # reads 1 wherever the querier pins the bit
        rng = random.Random(2024)
        for trial in range(60):
            circuit = build_batch_query(rng.randrange(1, 20))
            lanes = rng.randrange(1, 10)
            inputs0, inputs1 = random_inputs(circuit, rng, lanes, sparse=2)
            out0, out1, _, _ = run_backend(circuit, "gmw", inputs0, inputs1,
                                           seed=trial, lanes=lanes)
            assert out0 == plaintext(circuit, inputs0, inputs1, lanes)
            assert out1 is None

    def test_distinct_pair_agrees_with_rule_overlap(self):
        rng = random.Random(5)
        circuit = build_batch_query(8)
        for trial in range(30):
            q = random_rule(8, rng)
            h = random_rule(8, rng)
            inputs0, inputs1 = rule_inputs(q, [h])
            out0, out1, _, _ = run_backend(circuit, "gmw", inputs0, inputs1,
                                           seed=trial)
            assert out0 == ((0,) if overlaps(q, h) else (1,))
            assert out1 is None

    def test_online_rounds_equal_and_depth_plus_reveal(self):
        rng = random.Random(11)
        circuit = build_batch_query(16)
        for k in (1, 3):
            inputs0, inputs1 = random_inputs(circuit, rng, k)
            _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1,
                                       lanes=k)
            assert t0.online_rounds == t1.online_rounds
            assert t0.online_rounds == circuit.and_depth() + 1
            assert circuit.and_depth() == 3

    def test_input_sharing_sends_no_online_input_frames(self):
        circuit = build_batch_query(4)
        rng = random.Random(1)
        inputs0, inputs1 = random_inputs(circuit, rng)
        _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1)
        for t in (t0, t1):
            kinds = {e.kind for e in t.frames if e.phase == "online"}
            assert kinds == {MSG_AND_OPENING, MSG_INPUT_SHARE, MSG_OUTPUT_SHARE}
            setup_kinds = {e.kind for e in t.frames if e.phase == "setup"}
            assert setup_kinds == set()  # dealer material is no frame
            # the one INPUT_SHARE frame is the release's choice frame, in
            # the round after the last AND level
            (choice,) = [e for e in t.frames if e.kind == MSG_INPUT_SHARE]
            assert choice.round_index == t.online_rounds == (
                circuit.and_depth() + 1)
            assert max(e.round_index for e in t.frames
                       if e.kind == MSG_AND_OPENING) == circuit.and_depth()

    def test_underprovisioned_dealer_aborts(self):
        # a narrower template's material is short of shifts, though its
        # plan is the same: width 3 pairs its cells into two lookup gates,
        # as width 4 does
        narrower = deal("gmw", width=3)
        assert narrower[0].levels == build_batch_query(4).levels
        for party in (0, 1):
            with refused("gmw", party, narrower[party]):
                first_step("gmw", party, narrower[party])

    def test_underprovisioned_lookup_material_aborts(self):
        # the OR tree's mask products fit; level 1 is a lookup gate short
        short = deal("gmw", levels=(1, 1))
        for party in (0, 1):
            with refused("gmw", party, short[party]):
                first_step("gmw", party, short[party])

    def test_closed_channel_aborts_cleanly(self):
        circuit = build_batch_query(4)
        rng = random.Random(1)
        inputs0, inputs1 = random_inputs(circuit, rng)
        mat0, _ = dealer_for_circuit(circuit, "gmw", rng)

        def hangs_up():
            """A peer that closes the channel before sending a frame."""
            return
            yield

        with pytest.raises(ChannelClosed):
            run_pair(gmw_steps(circuit, 0, inputs0, mat0), hangs_up())

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_a_gate_of_n_inputs_shares_their_and(self, arity):
        # One tree level of gates of ``arity`` inputs on random shares over
        # random lane counts: the two output shares XOR to the AND of the
        # inputs, gate g of slice i in bits [(i gates + g) lanes, ...).
        rng = random.Random(60 + arity)
        for trial in range(25):
            gates, lanes = rng.randrange(1, 6), rng.randrange(1, 70)
            nb = gates * lanes
            plan = SimpleNamespace(width=0, arities=(arity,),
                                   plan=lambda backend: (0, gates))
            mat0, mat1 = dealer_for_circuit(plan, "gmw", rng, lanes)
            inputs = rng.getrandbits(arity * nb)
            share0 = rng.getrandbits(arity * nb)
            out0, out1, _ = run_pair(
                gmw._and_steps(0, share0, arity, nb, mat0.tree[0]),
                gmw._and_steps(1, inputs ^ share0, arity, nb, mat1.tree[0]))
            want = (1 << nb) - 1
            for i in range(arity):
                want &= inputs >> i * nb
            assert out0 ^ out1 == want, (trial, gates, lanes)

    def test_release_pads_fit_the_values(self):
        # The pads are dealt as long as the released values, one 6-byte
        # lane per transfer here.  Values of another size would not line
        # up with them, and a longer value would leave bytes unpadded, so
        # the release refuses them.
        circuit = build_batch_query(4)
        mat0, mat1 = dealer_for_circuit(circuit, "gmw", random.Random(8),
                                        lanes=2, size=6)
        assert mat0.transfer_bytes == mat1.transfer_bytes == 6
        assert max(mat0.transfer[1], *mat1.transfer) < 1 << 2 * 48
        for size in (5, 7):
            for values, dummy in (([bytes(size)] * 2, bytes(6)),
                                  ([bytes(6)] * 2, bytes(size))):
                with pytest.raises(ValueError, match=(
                        "release needs 2 values and a dummy of 6 bytes "
                        "each")):
                    next(reveal_steps(0, mat1, receive=False, values=values,
                                      dummy=dummy))

    def test_a_querier_word_reading_3_is_refused(self):
        # a querier cell pinned both ways is no symbol of Z3
        circuit = build_batch_query(4)
        mat0, _ = dealer_for_circuit(circuit, "gmw", random.Random(2))
        with pytest.raises(ValueError, match="reads symbol 3 at cell 2"):
            next(first_steps(circuit, 0b0100_0100, mat0))

    def test_the_holder_refuses_a_shift_frame_reading_3(self):
        # Cell 1 of a forged shift frame has both planes set.  The holder
        # refuses it naming the symbol and the cell, before it sends its
        # tables.
        circuit = build_batch_query(4)
        _, inputs1 = random_inputs(circuit, random.Random(6), 2)
        _, mat1 = dealer_for_circuit(circuit, "gmw", random.Random(7),
                                     lanes=2, size=1)
        with pytest.raises(ProtocolError, match=(
                "shift frame reads the unused symbol 3 at cell 1")):
            run_pair(send_frame(MSG_AND_OPENING, bytes([0b0010_0010])),
                     party_steps(circuit, "gmw", 1, inputs1, mat1))

    def test_wrong_party_material_rejected(self):
        circuit = build_batch_query(4)
        rng = random.Random(1)
        inputs0, _ = random_inputs(circuit, rng)
        _, mat1 = dealer_for_circuit(circuit, "gmw", rng)
        with pytest.raises(ValueError):
            next(gmw_steps(circuit, 0, inputs0, mat1))

    def test_runs_over_tcp(self):
        run_over_tcp("gmw")

    def test_delay_sets_online_wall_time_floor(self):
        circuit = build_batch_query(4)
        rng = random.Random(3)
        inputs0, inputs1 = random_inputs(circuit, rng)
        delay = 0.02
        _, _, t0, _ = run_backend(circuit, "gmw", inputs0, inputs1, delay=delay)
        rounds = circuit.and_depth() + 1
        assert t0.online_rounds == rounds
        assert t0.online_wall_time >= rounds * delay * 0.9


# --------------------------------------------------------------------------
# garbled-circuit backend


class TestYao:
    def test_matches_plaintext_overlap_on_the_template(self):
        rng = random.Random(4321)
        for width, lanes, trials in ((1, 1, 40), (1, 7, 12), (4, 3, 12),
                                     (4, 500, 2), (104, 1, 8), (104, 40, 2)):
            circuit = build_batch_query(width)
            seen = set()
            for trial in range(trials):
                inputs0, inputs1, expected = overlap_case(width, lanes, rng)
                out0, out1, _, _ = run_backend(circuit, "yao", inputs0,
                                               inputs1, seed=trial,
                                               lanes=lanes)
                assert out0 == expected, (width, lanes, trial)
                assert out1 is None  # the garbler learns nothing
                seen.update(expected)
            # lanes that overlap and lanes that do not
            assert seen == {0, 1}, (width, lanes)
            # the wildcard query overlaps every entry
            inputs0, inputs1, expected = overlap_case(
                width, lanes, rng, q=TernaryRule.wildcard(width))
            out0, _, _, _ = run_backend(circuit, "yao", inputs0, inputs1,
                                        lanes=lanes)
            assert out0 == expected == (0,) * lanes

    def test_width_1_template_has_no_or_tree(self):
        # every pair of width-1 rules: 0, 1 and * against 0, 1 and *
        circuit = build_batch_query(1)
        assert circuit.plan("yao") == (2,)
        assert circuit.levels == (1,)  # gmw's one lookup gate
        rules = [TernaryRule(1, 0, 1), TernaryRule(1, 1, 1),
                 TernaryRule.wildcard(1)]
        for q in rules:
            inputs0, inputs1 = rule_inputs(q, rules)
            out0, _, _, _ = run_backend(circuit, "yao", inputs0, inputs1,
                                        lanes=3)
            assert out0 == tuple(int(not overlaps(q, h)) for h in rules)
            assert out0.count(1) == (1 if q.mask else 0)

    def test_two_online_rounds_regardless_of_size(self):
        rng = random.Random(6)
        circuit = build_batch_query(8)
        for k in (1, 8):
            inputs0, inputs1 = random_inputs(circuit, rng, k)
            _, _, t0, t1 = run_backend(circuit, "yao", inputs0, inputs1,
                                       lanes=k)
            assert t0.online_rounds == t1.online_rounds == 2

    def test_tables_travel_during_setup(self):
        circuit = build_batch_query(8)
        rng = random.Random(7)
        inputs0, inputs1 = random_inputs(circuit, rng)
        _, _, t0, t1 = run_backend(circuit, "yao", inputs0, inputs1)
        for t in (t0, t1):
            setup_kinds = {e.kind for e in t.frames if e.phase == "setup"}
            assert setup_kinds == {MSG_GARBLED_TABLES}
            online_kinds = {e.kind for e in t.frames if e.phase == "online"}
            assert online_kinds == {MSG_INPUT_SHARE, MSG_LABELS, MSG_OUTPUT_SHARE}
        table_entry = next(
            e for e in t1.frames
            if e.kind == MSG_GARBLED_TABLES and e.direction == "sent"
        )
        # one 16-byte row per cross gate; the OR tree's ANDs are not garbled
        assert circuit.plan("yao") == (16,)
        assert table_entry.n_bytes == 5 + 16 * 16

    def test_missing_transfer_material_aborts(self):
        # the width-4 evaluator takes 8 label transfers, one per querier
        # input: a narrower template's 6, or gmw's 3, one per lane, are
        # refused before the first step
        first_step("yao", 0, deal("yao")[0])
        for mat0 in (deal("yao", width=3)[0], deal("gmw")[0]):
            with refused("yao", 0, mat0):
                first_step("yao", 0, mat0)

    def test_garbler_requires_rng(self):
        circuit = build_batch_query(4)
        rng = random.Random(9)
        _, inputs1 = random_inputs(circuit, rng)
        _, mat1 = dealer_for_circuit(circuit, "yao", rng)
        with pytest.raises(ValueError, match="needs an rng"):
            next(garble_steps(circuit, inputs1, mat1, None))

    def test_party_1_garbles_and_party_0_evaluates(self):
        circuit = build_batch_query(4)
        rng = random.Random(4)
        inputs0, inputs1 = random_inputs(circuit, rng)
        mat0, mat1 = dealer_for_circuit(circuit, "yao", rng)
        with pytest.raises(ValueError, match="does not fit yao party 1"):
            next(garble_steps(circuit, inputs1, mat0, random.Random(1)))
        with pytest.raises(ValueError, match="does not fit yao party 0"):
            next(evaluate_steps(circuit, inputs0, mat1))

    def test_runs_over_tcp(self):
        run_over_tcp("yao")

    def test_a_wrong_sum_opens_the_dummy(self):
        rng = random.Random(12)
        lanes = 5
        sums = rng.getrandbits(128 * lanes)
        values = [rng.randbytes(6) for _ in range(lanes)]
        dummy = b"\xff" * 6
        # lane 2's sum misses the garbler's by one bit, lane 4's entirely
        wrong = sums ^ (1 << 2 * 128) ^ (rng.getrandbits(128) << 4 * 128)
        opened, _, _ = run_pair(open_steps(wrong, lanes, dummy),
                                release_steps(sums, values))
        assert opened == [values[0], values[1], dummy, values[3], dummy]


# --------------------------------------------------------------------------
# cross-backend and transcript behaviour


def tree_gates(fields: int) -> list[tuple[int, int]]:
    """(gates, inputs per gate) of each OR-tree level over ``fields``: a
    level of n fields ANDs them min(4, n) at a time and carries the rest,
    down to 1."""
    levels = []
    while fields > 1:
        arity = min(4, fields)
        levels.append((fields // arity, arity))
        fields = fields // arity + fields % arity
    return levels


class TestLanes:
    """The template over k lanes equals k plaintext evaluations."""

    @staticmethod
    def run(circuit, backend, inputs0, inputs1, lanes, seed):
        mat0, mat1 = dealer_for_circuit(circuit, backend, random.Random(seed),
                                        lanes=lanes, size=1)
        out0, out1, _ = run_pair(
            party_steps(circuit, backend, 0, inputs0, mat0),
            party_steps(circuit, backend, 1, inputs1, mat1,
                        garble_rng=random.Random(seed + 1)))
        assert out1 is None
        return out0

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("lanes", [1, 2, 3, 9, 64])
    def test_each_lane_matches_plaintext(self, backend, lanes):
        rng = random.Random(500 + lanes)
        for trial in range(12):
            width = rng.choice((1, 3, 4, 8))
            inputs0, inputs1, expected = overlap_case(width, lanes, rng)
            got = self.run(build_batch_query(width), backend, inputs0,
                           inputs1, lanes, trial)
            assert got == expected, trial

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_cross_gates_match_plaintext(self, backend, lanes):
        # Input bits that need not form rules.  Under yao a querier may pin
        # a bit both ways, so a cell's two cross gates may both read 1, and
        # its key sums test whether any cross gate reads 1.  gmw's lookup
        # level reads the querier's symbols of Z3, none of them 3, against
        # holder bits that may pin a bit both ways, and computes the
        # template, whose cell is the XOR of its two products.
        rng = random.Random(700 + lanes)
        cell = int.__xor__ if backend == "gmw" else int.__or__
        seen = set()
        for trial in range(8):
            circuit = build_batch_query(rng.choice((1, 2, 3)))
            inputs0, inputs1 = random_inputs(circuit, rng, lanes, sparse=2,
                                             symbols=backend == "gmw")
            got = self.run(circuit, backend, inputs0, inputs1, lanes, trial)
            assert got == plaintext(circuit, inputs0, inputs1, lanes,
                                    cell), trial
            seen.update(got)
        assert seen == {0, 1}

    def test_dealer_material_scales_with_lanes(self):
        circuit = build_batch_query(8)
        # every draw all ones, so that the words show their widths, but the
        # first, the shifts' low plane, so that every shift reads 2
        ones = SimpleNamespace(getrandbits=lambda n: (1 << n) - 1)
        draws = iter([0])
        shifted = SimpleNamespace(
            getrandbits=lambda n: next(draws, (1 << n) - 1))
        mat0, mat1 = dealer_for_circuit(circuit, "gmw", shifted, lanes=5)
        # 4 lookup gates, one 4-input OR-tree gate, and a release transfer
        # per lane
        assert (circuit.levels, circuit.arities) == ((4, 1), (4,))
        # 2 bits of shift per cell, the pads p[2, 2] XOR r XOR r = 0 of 4
        # pairs and 5 lanes, and the holder's 9 pads and its r
        assert mat0.lookup[:2] == (ones.getrandbits(8) << 8, 0)
        assert mat1.lookup == (ones.getrandbits(9 * 4 * 5),
                               ones.getrandbits(4 * 5))
        assert mat0.tree == (ones.getrandbits(15 * 1 * 5) << 5,)
        assert mat0.transfer == (ones.getrandbits(5),
                                 ones.getrandbits(128 * 5))
        # the querier's inputs are broadcast: one transfer per input at any k
        mat0, mat1 = dealer_for_circuit(circuit, "yao", ones, lanes=5)
        assert (mat0.lookup[:2], mat0.tree) == ((0, 0), ())
        assert mat0.transfer == (ones.getrandbits(16),
                                 ones.getrandbits(128 * 16))
        assert mat1.transfer == (ones.getrandbits(128 * 16),) * 2

    def test_level_1_cross_gates_open_one_querier_bit_at_any_lane_count(self):
        # Each frame is exact, after a 5-byte header.  At the lookup level
        # the querier sends its shifts, two bits per cell for all lanes,
        # and the holder nine table entries per pair of cells and lane; at
        # a tree level each side opens one bit per gate input and lane.
        for width in (1, 4, 7, 104):
            circuit = build_batch_query(width)
            rng = random.Random(41 + width)
            for lanes in (1, 8, 33, 64):
                inputs0, inputs1, expected = overlap_case(width, lanes, rng)
                out0, _, t0, _ = run_backend(circuit, "gmw", inputs0, inputs1,
                                             lanes=lanes)
                assert out0 == expected, (width, lanes)
                openings = [(e.direction, e.n_bytes) for e in t0.frames
                            if e.kind == MSG_AND_OPENING]
                pairs = (width + 1) // 2
                tree = [5 + (arity * gates * lanes + 7) // 8
                        for gates, arity in tree_gates(pairs)]
                assert openings == [
                    ("sent", 5 + (2 * width + 7) // 8),
                    ("received", 5 + (9 * pairs * lanes + 7) // 8),
                ] + [(d, size) for size in tree
                     for d in ("sent", "received")], (width, lanes)

    def test_lane_inputs_are_range_checked(self):
        circuit = build_batch_query(4)
        inputs0, inputs1 = random_inputs(circuit, random.Random(2), 4)
        gmw0, gmw1 = dealer_for_circuit(circuit, "gmw", random.Random(3),
                                        lanes=4)
        yao0, yao1 = dealer_for_circuit(circuit, "yao", random.Random(3),
                                        lanes=4)
        # a querier word is one bit per gate, which every lane reads, and a
        # holder word one bit per gate and lane
        for bad0, bad1 in ((inputs0 | 1 << 8, inputs1 | 1 << 32), (-1, -1)):
            for steps in (gmw_steps(circuit, 0, bad0, gmw0),
                          gmw_steps(circuit, 1, bad1, gmw1),
                          evaluate_steps(circuit, bad0, yao0),
                          garble_steps(circuit, bad1, yao1, random.Random(4))):
                with pytest.raises(ValueError, match="must fit"):
                    next(steps)


class TestHalfGates:
    """AES, lane-wise doubling, and hashed and label-keyed rows against
    plain loops."""

    LABEL_MASK = (1 << 128) - 1

    def test_aes_matches_fips_197(self):
        # FIPS-197, appendix C.1
        cipher = Aes128Ecb(bytes(range(16)))
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert cipher.encrypt(plain).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert cipher.encrypt(plain * 3) == cipher.encrypt(plain) * 3
        with pytest.raises(ValueError):
            cipher.encrypt(plain[:15])

    def test_ctr_matches_sp_800_38a(self):
        # NIST SP 800-38A, F.5.1: the counter's low byte carries
        key = bytearray.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        data = bytearray.fromhex("6bc1bee22e409f96e93d7e117393172a"
                                 "ae2d8a571e03ac9c9eb76fac45af8e51")
        (key_pin, key_at), (pin, at) = pinned(key), pinned(data)
        Aes128("ctr").encrypt(key_at, at, at, len(data), bytes.fromhex(
            "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
        assert data.hex() == ("874d6191b620e3261bef6864990db6ce"
                              "9806f66b7970fdff8617187bb9fffdff")

    def test_a_rekeyed_context_matches_a_fresh_cipher(self):
        # One ECB and one CTR context, keyed in turn under three keys and
        # back, give what a fresh Aes128Ecb(key) gives on the counter
        # blocks: ECB on blocks c(i, b), and CTR from block zero the
        # blocks c(i, 0), XORed into the data it runs over.
        rng = random.Random(75)
        blocks = 5
        counters = bytearray(b"".join(
            ((rng.getrandbits(1) << 120) | i).to_bytes(16, "big")
            for i in range(blocks)))
        zero_counters = b"".join(i.to_bytes(16, "big") for i in range(blocks))
        data = rng.randbytes(16 * blocks)
        keys = [rng.randbytes(16) for _ in range(3)]
        ecb, ctr = Aes128("ecb"), Aes128("ctr")
        for key in keys + keys[::-1]:
            fresh = Aes128Ecb(key)
            key_buf, out, stream = bytearray(key), bytearray(16 * blocks), (
                bytearray(data))
            pins = [pinned(buf) for buf in (key_buf, out, counters, stream)]
            (_, key_at), (_, out_at), (_, counters_at), (_, at) = pins
            ecb.encrypt(key_at, out_at, counters_at, len(out))
            ctr.encrypt(key_at, at, at, len(stream))
            assert out == fresh.encrypt(bytes(counters))
            assert bytes(a ^ b for a, b in zip(stream, data)) == (
                fresh.encrypt(zero_counters))

    @classmethod
    def double(cls, x: int) -> int:
        """Doubling in GF(2^128) modulo x^128 + x^7 + x^2 + x + 1."""
        return ((x << 1) & cls.LABEL_MASK) ^ (0x87 if x >> 127 else 0)

    def test_lane_doubling_matches_scalar_reference(self):
        rng = random.Random(71)
        top = 1 << 127
        # bit 127 set in lane 0 and clear in lane 1, then random lanes
        lanes = [rng.getrandbits(128) | top, rng.getrandbits(127),
                 self.LABEL_MASK, top, 0, 1]
        lanes += [rng.getrandbits(128) for _ in range(58)]
        word = pack(lanes, 128)
        doubled = yao._double(word, yao._lane_ones(len(lanes)))
        assert unpack(doubled, 128, len(lanes)) == [
            self.double(x) for x in lanes]
        assert doubled >> (128 * len(lanes)) == 0

    @classmethod
    def h(cls, x: int, tweak: int) -> int:
        """H(x, i) = pi(sigma(x) XOR i) XOR sigma(x) on one block."""
        s = cls.double(x)
        block = yao._PI.encrypt((s ^ tweak).to_bytes(16, "little"))
        return int.from_bytes(block, "little") ^ s

    @staticmethod
    def prf(label: int, lane: int, bit: int = 0) -> int:
        """AES_label(c(lane, bit)) on one block, from a fresh cipher: the
        lane big-endian, the holder's bit in the top byte."""
        block = ((bit << 120) | lane).to_bytes(16, "big")
        cipher = Aes128Ecb(label.to_bytes(16, "little"))
        return int.from_bytes(cipher.encrypt(block), "little")

    def hashed(self, lanes):
        """The hashed rows' PRF F(A, g, i, b) = H(A, j + b), with
        j = 2 (g lanes + i)."""
        return lambda label, g, i, b=0: self.h(label, 2 * (g * lanes + i) + b)

    def keyed(self, label, g, i, b=0):
        """The label-keyed rows' PRF F(A, g, i, b) = AES_A(c(i, b))."""
        return self.prf(label, i, b)

    @staticmethod
    def reference_garble(prf, zero, one, clear, lanes):
        """Both rows one (gate, lane) at a time under PRF ``prf``.

        Gate g's row in lane i is T = F(A0, g, i, b) ^ F(A1, g, i, 0) for
        the holder's bit b, and its zero-key F(A0, g, i, 0).  Returns (the
        rows by gate, then lane, the per-lane sums of the zero-keys).
        """
        rows, sums = [], [0] * lanes
        for g, (a0, a1) in enumerate(zip(zero, one)):
            for i in range(lanes):
                b = clear >> (g * lanes + i) & 1
                rows.append((prf(a0, g, i, b) ^ prf(a1, g, i)).to_bytes(
                    16, "little"))
                sums[i] ^= prf(a0, g, i)
        return b"".join(rows), sums

    @staticmethod
    def reference_evaluate(prf, chosen, inputs0, tables, lanes):
        """The evaluator's per-lane sums of F(A, g, i, 0) ^ q T, for the
        label A of its input bit q and gate g's row T in lane i."""
        sums = [0] * lanes
        for g, label in enumerate(chosen):
            for i in range(lanes):
                row = int.from_bytes(tables[16 * (g * lanes + i) :][:16],
                                     "little")
                sums[i] ^= prf(label, g, i) ^ (row if inputs0 >> g & 1 else 0)
        return sums

    @staticmethod
    def hashed_labels(rng, n):
        """delta and the zero- and one-labels of ``n`` querier wires, the
        one-labels offset by delta."""
        delta = rng.getrandbits(128)
        zero = [rng.getrandbits(128) for _ in range(n)]
        return delta, zero, [a ^ delta for a in zero]

    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_tables_equal_a_per_lane_reference(self, lanes):
        rng = random.Random(80 + lanes)
        for width in (1, 4, 8, 104):
            n = 2 * width
            clear = rng.getrandbits(n * lanes)
            delta, zero, one = self.hashed_labels(rng, n)
            tables, sums = yao._garble(pack(zero, 128), n, delta, clear,
                                       lanes)
            ref_tables, ref_sums = self.reference_garble(
                self.hashed(lanes), zero, one, clear, lanes)
            assert len(tables) == 16 * lanes * n
            assert tables == ref_tables
            assert unpack(sums, 128, lanes) == ref_sums

    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_cross_gate_rows_equal_a_per_lane_reference(self, lanes):
        # The evaluator's key of each cross gate's row, H(A, j) ^ q T for
        # its input bit q, summed per lane, and the sums agree with the
        # garbler's exactly where the rules overlap.
        rng = random.Random(90 + lanes)
        for width in (1, 4, 8, 104):
            inputs0, inputs1, expected = overlap_case(width, lanes, rng)
            n = 2 * width
            delta, zero, one = self.hashed_labels(rng, n)
            tables, sums = yao._garble(pack(zero, 128), n, delta, inputs1,
                                       lanes)
            chosen = [(one if inputs0 >> g & 1 else zero)[g]
                      for g in range(n)]
            got = unpack(yao._evaluate(pack(chosen, 128), n, inputs0, tables,
                                       lanes), 128, lanes)
            assert got == self.reference_evaluate(
                self.hashed(lanes), chosen, inputs0, tables, lanes)
            assert tuple(int(a != b) for a, b in zip(
                got, unpack(sums, 128, lanes))) == expected

    @pytest.mark.parametrize("lanes", [1, 3, yao.LABEL_KEYED_LANES - 1,
                                       yao.LABEL_KEYED_LANES, 40, 64])
    def test_label_keyed_rows_equal_a_per_lane_reference(self, lanes):
        # The rows' formula under F(A, i, b) = AES_A(c(i, b)), with A1
        # drawn apart from A0: the tables and S0 exact, and the
        # evaluator's sums exact and equal to S0 exactly where the rules
        # overlap.
        rng = random.Random(110 + lanes)
        for width in (1, 4, 8, 104):
            inputs0, inputs1, expected = overlap_case(width, lanes, rng)
            n = 2 * width
            zero = [rng.getrandbits(128) for _ in range(n)]
            one = [rng.getrandbits(128) for _ in range(n)]
            tables, sums = yao._garble_keyed(pack(zero, 128), pack(one, 128),
                                             n, inputs1, lanes)
            chosen = [(one if inputs0 >> g & 1 else zero)[g]
                      for g in range(n)]
            got = unpack(yao._evaluate_keyed(pack(chosen, 128), n, inputs0,
                                             bytes(tables), lanes),
                         128, lanes)
            ref_tables, ref_sums = self.reference_garble(
                self.keyed, zero, one, inputs1, lanes)
            assert len(tables) == 16 * lanes * n
            assert tables == ref_tables
            assert unpack(sums, 128, lanes) == ref_sums
            assert got == self.reference_evaluate(
                self.keyed, chosen, inputs0, tables, lanes)
            assert tuple(int(a != b) for a, b in zip(got, ref_sums)) == (
                expected)

    @pytest.mark.parametrize("width", [4, 104])
    @pytest.mark.parametrize("lanes", [yao.LABEL_KEYED_LANES - 1,
                                       yao.LABEL_KEYED_LANES])
    def test_sessions_on_either_side_of_the_threshold(self, monkeypatch,
                                                      lanes, width):
        # Whole sessions against the plaintext overlap of every lane, and
        # the rows each lane count is garbled and evaluated with.
        ran = []
        for name in ("_garble", "_garble_keyed", "_evaluate",
                     "_evaluate_keyed"):
            def spy(*args, _real=getattr(yao, name), _name=name):
                ran.append(_name)
                return _real(*args)
            monkeypatch.setattr(yao, name, spy)
        keyed = lanes >= yao.LABEL_KEYED_LANES
        rng = random.Random(120 + lanes + width)
        circuit = build_batch_query(width)
        for trial in range(3):
            inputs0, inputs1, expected = overlap_case(width, lanes, rng)
            out0, _, _, _ = run_backend(circuit, "yao", inputs0, inputs1,
                                        seed=trial, lanes=lanes)
            assert out0 == expected, trial
        assert ran == (["_garble_keyed", "_evaluate_keyed"] if keyed
                       else ["_garble", "_evaluate"]) * 3

    def test_released_values_fit_one_hash_block(self):
        # a value and a tag of 80 zero bits share one 16-byte block
        with pytest.raises(ValueError, match="at most 6 bytes"):
            next(yao.release_steps(3, [bytes(7)]))
        with pytest.raises(ValueError, match="at most 6 bytes"):
            next(yao.open_steps(0, 1, bytes(7)))

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_four_row_tables_are_rejected(self, lanes):
        circuit = build_batch_query(4)
        inputs0, _ = random_inputs(circuit, random.Random(5), lanes)
        mat0, _ = dealer_for_circuit(circuit, "yao", random.Random(6),
                                     lanes=lanes)
        rows = lanes * 2 * circuit.width
        with pytest.raises(ProtocolError, match=(
                f"GARBLED_TABLES frame of {64 * rows} bytes, expected "
                f"{16 * rows}")):
            run_pair(send_frame(MSG_GARBLED_TABLES, bytes(64 * rows)),
                     evaluate_steps(circuit, inputs0, mat0))


class TestBackendAgreement:
    def test_backends_agree_on_width_104_pairs(self):
        rng = random.Random(99)
        circuit = build_batch_query(104)
        for trial in range(3):
            q = random_rule(104, rng)
            h = random_rule(104, rng)
            inputs0, inputs1 = rule_inputs(q, [h])
            g0, _, _, _ = run_backend(circuit, "gmw", inputs0, inputs1, seed=trial)
            y0, _, _, _ = run_backend(circuit, "yao", inputs0, inputs1, seed=trial)
            assert g0 == y0 == ((0,) if overlaps(q, h) else (1,))

    def test_one_sided_reveal(self):
        circuit = build_batch_query(8)
        rng = random.Random(13)
        inputs0, inputs1, expected = overlap_case(8, 1, rng)
        for backend in ("gmw", "yao"):
            out0, out1, t0, t1 = run_backend(circuit, backend, inputs0,
                                             inputs1)
            assert out0 == expected
            assert out1 is None
            received_kinds = {
                e.kind for e in t1.frames if e.direction == "received"
            }
            assert MSG_OUTPUT_SHARE not in received_kinds

    def test_step_generators_share_one_thread_with_a_blocking_party(
            self, monkeypatch):
        def refuse(self):
            raise AssertionError("a session started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        circuit = build_batch_query(8)
        rng = random.Random(29)
        inputs0, inputs1, expected = overlap_case(8, 2, rng)
        for backend in ("gmw", "yao"):
            out0, out1, _, _ = run_backend(circuit, backend, inputs0, inputs1,
                                           seed=3, lanes=2)
            assert out0 == expected
            assert out1 is None

    def test_transcripts_are_deterministic_per_seed(self):
        circuit = build_batch_query(8)
        rng = random.Random(17)
        inputs0, inputs1 = random_inputs(circuit, rng)

        def recorded(seed):
            """Every frame party 0 sent and received, payload included, and
            both parties' transcript entries."""
            spy = Spy()
            _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1,
                                       seed=seed, tap0=spy)
            return spy.frames, t0.frames, t1.frames

        runs = [recorded(42) for _ in range(2)]
        assert runs[0][0]  # frames in both directions were recorded
        assert {d for d, _, _ in runs[0][0]} == {"sent", "received"}
        assert runs[0] == runs[1]
        other = recorded(43)
        assert other[0] != runs[0][0]

    def test_byte_totals_match_between_parties(self):
        circuit = build_batch_query(16)
        rng = random.Random(19)
        inputs0, inputs1 = random_inputs(circuit, rng)
        _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1)
        sent0 = sum(e.n_bytes for e in t0.frames
                    if e.direction == "sent" and e.phase == "online")
        recv1 = sum(e.n_bytes for e in t1.frames
                    if e.direction == "received" and e.phase == "online")
        assert sent0 == recv1


class TestAgainstOverlap:
    """Both backends against the overlap predicate of the rules."""

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    def test_every_width_4_rule_against_every_rule(self, backend):
        # each of the 81 querier rules against all 81 rules as 81 lanes
        rules = list(enumerate_rules(4))
        assert len(rules) == 81
        circuit = build_batch_query(4)
        for seed, q in enumerate(rules):
            inputs0, inputs1 = rule_inputs(q, rules)
            out0, _, _, _ = run_backend(circuit, backend, inputs0, inputs1,
                                        seed=seed, lanes=len(rules))
            assert out0 == tuple(int(not overlaps(q, h)) for h in rules), q

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("width", [1, 3, 7, 104])
    @pytest.mark.parametrize("k", [1, 8, 33])
    def test_odd_widths_carry_the_last_field(self, backend, width, k):
        # at 3, 7 and 104 some tree level has an odd field count
        rng = random.Random(100 * width + k)
        circuit = build_batch_query(width)
        for trial in range(4):
            inputs0, inputs1, expected = overlap_case(width, k, rng)
            out0, _, _, _ = run_backend(circuit, backend, inputs0, inputs1,
                                        seed=trial, lanes=k)
            assert out0 == expected, trial


# --------------------------------------------------------------------------
# what the querier's wire looks like


def tapped(steps, tap):
    """Step: run ``steps``, passing each frame it sends or receives through
    ``tap(direction, kind, payload)``, direction "sent" or "received",
    which returns the payload to pass on."""
    reply = None
    while True:
        try:
            op = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        if op is RECV:
            kind, payload, size = yield RECV
            passed = tap("received", kind, payload)
            reply = kind, passed, size - len(payload) + len(passed)
        else:
            kind, payload = op
            reply = yield kind, tap("sent", kind, payload)


class Spy:
    """A tap that records every frame, in order, with its payload."""

    def __init__(self):
        self.frames = []  # (direction, kind, payload)

    @property
    def received(self):
        return [(kind, payload) for direction, kind, payload in self.frames
                if direction == "received"]

    def __call__(self, direction, kind, payload):
        self.frames.append((direction, kind, bytes(payload)))
        return payload


def truncating(kind):
    """A tap that cuts the last byte from the first frame of ``kind`` that
    either party sends."""
    left = {kind}

    def cut(direction, got, payload):
        if got not in left:
            return payload
        left.clear()
        return payload[:-1]

    return cut


@pytest.mark.parametrize("backend,name", [
    ("gmw", "AND_OPENING"),
    ("gmw", "INPUT_SHARE"),
    ("gmw", "OUTPUT_SHARE"),
    ("yao", "GARBLED_TABLES"),
    ("yao", "INPUT_SHARE"),
    ("yao", "LABELS"),
    ("yao", "OUTPUT_SHARE"),
])
def test_a_short_online_frame_is_refused_naming_its_size(backend, name):
    (kind,) = [k for k, v in KIND_NAMES.items() if v == name]
    circuit = build_batch_query(8)
    rng = random.Random(31)
    inputs0, inputs1 = random_inputs(circuit, rng, 3)
    mat0, mat1 = dealer_for_circuit(circuit, backend, rng, lanes=3, size=1)
    with pytest.raises(ProtocolError, match=f"{name} frame of") as caught:
        run_pair(tapped(party_steps(circuit, backend, 0, inputs0, mat0),
                        truncating(kind)),
                 party_steps(circuit, backend, 1, inputs1, mat1,
                             garble_rng=random.Random(1)))
    got, expected = map(int, re.search(r"of (\d+) bytes, expected (\d+)",
                                       str(caught.value)).groups())
    assert got == expected - 1


class TestOnlineTrafficLooksRandom:
    def test_received_online_bits_pass_uniformity_check(self):
        # Two very different holder inputs; in both cases the bits each
        # party actually sees online must be indistinguishable from fair
        # coin flips (the dealer randomness masks everything).
        lanes = 8
        circuit = build_batch_query(8)
        rng = random.Random(23)
        inputs0, _ = random_inputs(circuit, rng, lanes)
        holder_a = random_inputs(circuit, random.Random(100), lanes)[1]
        holder_b = 0
        # Significant bits of each online frame (the rest of a last byte is
        # padding).  At the lookup level the holder sends 9 bits per pair
        # of cells and lane; the querier's shifts, symbols of Z3 rather
        # than bits, are tested in tests/test_distinct_match.py and
        # skipped here.  A tree level's opening carries a bit per gate
        # input and lane.  The release carries one masked choice bit per
        # lane to the holder, and two padded 1-byte values per lane back.
        lookup, *tree = circuit.levels
        tree = [n * arity * lanes for n, arity in zip(tree, circuit.arities)]
        to_querier = [9 * lookup * lanes] + tree + [16 * lanes]
        to_holder = [0] + tree + [lanes]
        assert all(to_querier) and all(to_holder[1:])
        for holder in (holder_a, holder_b):
            counts = {"sent": [0, 0], "received": [0, 0]}  # ones, bits
            for session in range(150):
                spy = Spy()
                run_backend(circuit, "gmw", inputs0, holder,
                            seed=1000 + session, tap0=spy, lanes=lanes)
                for direction, widths in (("sent", to_holder),
                                          ("received", to_querier)):
                    payloads = [payload for d, _, payload in spy.frames
                                if d == direction]
                    assert len(payloads) == len(widths)
                    for payload, width in zip(payloads, widths):
                        value = (int.from_bytes(payload, "little")
                                 & ((1 << width) - 1))
                        counts[direction][0] += bin(value).count("1")
                        counts[direction][1] += width
            for direction, least in (("sent", 5000), ("received", 10_000)):
                ones, total = counts[direction]
                assert total > least
                _, p_value = stats.chisquare([ones, total - ones])
                assert p_value > 0.01, direction

    def test_yao_querier_receives_uniform_bits(self):
        # Everything the querier receives under yao, the table rows, the
        # label transfer and the release, must look like fair coin flips
        # under either holder: every cross gate's offset D enters only a row
        # masked by the hash of a label the querier lacks.
        lanes = 8
        circuit = build_batch_query(8)
        inputs0, _ = random_inputs(circuit, random.Random(23), lanes)
        holder_a = random_inputs(circuit, random.Random(100), lanes)[1]
        holder_b = 0
        # 16 bytes per cross gate and lane, two 16-byte labels per querier
        # wire, 16 bytes per lane
        sizes = {MSG_GARBLED_TABLES: 16 * 16 * lanes, MSG_LABELS: 2 * 16 * 16,
                 MSG_OUTPUT_SHARE: 16 * lanes}
        for holder in (holder_a, holder_b):
            ones = total = 0
            for session in range(30):
                spy = Spy()
                run_backend(circuit, "yao", inputs0, holder,
                            seed=2000 + session, tap0=spy, lanes=lanes)
                received = spy.received
                assert {kind: len(payload) for kind, payload in received} == (
                    sizes)
                for _, payload in received:
                    ones += bin(int.from_bytes(payload, "little")).count("1")
                    total += 8 * len(payload)
            assert total > 500_000
            _, p_value = stats.chisquare([ones, total - ones])
            assert p_value > 0.01
