"""Channel, sharing, and two-backend execution tests.

The core check is differential: both secure backends must agree with the
plaintext evaluator on every circuit we throw at them, and their transcripts
must show the promised round counts and phase separation.
"""

from __future__ import annotations

import random
import re
import socket
import threading
import time

import pytest
from scipy import stats

from prelude.circuits import (
    NOT,
    XOR,
    Circuit,
    build_batch_query,
    evaluate_plaintext,
    expected_and_depth,
)
from prelude.rules import overlaps, random_rule
from prelude.smpc import (
    ChannelClosed,
    ChannelTimeout,
    InlineLoopback,
    KIND_NAMES,
    MSG_AND_OPENING,
    MSG_GARBLED_TABLES,
    MSG_INPUT_SHARE,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    MSG_SETUP_TRIPLES,
    ONLINE,
    ProtocolError,
    RECEIVED,
    SETUP,
    SessionTranscript,
    SetupUnderprovisioned,
    TcpChannel,
    TripleStream,
    dealer_for_circuit,
    dealer_gen,
    drive,
    encode_frame,
    evaluate_steps,
    garble_steps,
    gmw_steps,
    open_steps,
    pack_bits,
    recv_frame,
    release_steps,
    reveal_steps,
    send_frame,
    unpack_bits,
)
from prelude.smpc import yao
from prelude.smpc.aes import Aes128Ecb
from prelude.smpc.shares import (
    BitShares,
    int_to_bits,
    join_lanes,
    rows_to_lanes,
    split_lanes,
)


def rule_inputs(q, h) -> tuple[dict, dict]:
    """Comparator inputs of both parties: each rule's pinned-one and
    pinned-zero bits in wire order."""

    def pinned(rule):
        return (rows_to_lanes([rule.mask & rule.pattern], rule.width),
                rows_to_lanes([rule.mask & ~rule.pattern], rule.width))

    (q_one, q_zero), (h_one, h_zero) = pinned(q), pinned(h)
    return ({"q_one": q_one, "q_zero": q_zero},
            {"h_one": h_one, "h_zero": h_zero})


def random_circuit(rng: random.Random, n0: int = 5, n1: int = 5,
                   n_gates: int = 40) -> Circuit:
    """Random gates over party 0's secret wires; party 1's clear wires feed
    only AND gates, each with a secret wire."""
    c = Circuit()
    secret = list(c.add_input_group(0, "a", n0))
    clear = c.add_input_group(1, "b", n1)
    for _ in range(n_gates):
        op = rng.randrange(3)
        x = rng.choice(secret)
        if op == 0:
            secret.append(c.and_(x, rng.choice(secret + list(clear))))
        elif op == 1:
            secret.append(c.xor(x, rng.choice(secret)))
        else:
            secret.append(c.not_(x))
    for w in rng.sample(secret, k=4):
        c.mark_output(w)
    c.mark_output(secret[-1])
    return c


def random_inputs(circuit: Circuit, rng: random.Random):
    by_party = ({}, {})
    for group in circuit.input_groups:
        bits = [rng.getrandbits(1) for _ in group.wires]
        by_party[group.party][group.name] = bits
    return by_party


BIT_VALUES = (b"\x00", b"\x01")  # what each output releases, for 0 and 1


def party_steps(circuit, backend, party, inputs, mat, transcript=None, *,
                garble_rng=None, lanes=1):
    """One party of a session; returns the output bits it learns, or None.

    Only party 0 learns the outputs: on either backend party 1 releases the
    bytes 0 and 1 for each output, and party 0 opens one byte per output.
    """
    if backend == "gmw":
        shares = yield from gmw_steps(circuit, party, inputs, mat, transcript,
                                      lanes)
        opened = yield from reveal_steps(
            shares, mat, 1, transcript, receive=party == 0,
            values=[BIT_VALUES] * shares.n if party == 1 else ())
    elif party == 1:
        delta, zero_labels = yield from garble_steps(
            circuit, inputs, mat, garble_rng, transcript, lanes=lanes)
        yield from release_steps(delta, zero_labels,
                                 [BIT_VALUES] * len(zero_labels), transcript)
        return None
    else:
        labels = yield from evaluate_steps(circuit, inputs, mat, transcript,
                                           lanes=lanes)
        opened = yield from open_steps(labels, 1, transcript)
    return None if opened is None else tuple(value[0] for value in opened)


def run_backend(circuit, backend, inputs0, inputs1, *, seed=7, delay=0.0,
                spy0=None, lanes=1):
    """Run both parties in this thread; returns (out0, out1, t0, t1).

    Party 0 is driven over an in-thread loopback whose peer is party 1;
    ``spy0`` wraps that channel.
    """
    mat0, mat1 = dealer_for_circuit(circuit, backend, random.Random(seed),
                                    lanes=lanes)
    t0, t1 = SessionTranscript(), SessionTranscript()
    ch = InlineLoopback(
        party_steps(circuit, backend, 1, inputs1, mat1, t1,
                    garble_rng=random.Random(seed + 1), lanes=lanes),
        one_way_delay=delay)
    out0 = drive(party_steps(circuit, backend, 0, inputs0, mat0, t0,
                             lanes=lanes),
                 ch if spy0 is None else spy0(ch))
    return out0, ch.finish(), t0, t1


def run_over_tcp(backend):
    """Both parties of a width-8 comparison over a TCP connection, party 1
    in a thread of its own; asserts what each learns."""
    circuit = build_batch_query(8)
    rng = random.Random(21)
    inputs0, inputs1 = random_inputs(circuit, rng)
    expected = evaluate_plaintext(circuit, {**inputs0, **inputs1})
    mat0, mat1 = dealer_for_circuit(circuit, backend, rng)
    port, accept = TcpChannel.serve_one()
    ch1 = TcpChannel.connect("127.0.0.1", port)
    ch0 = accept()
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
    def test_shares_reject_non_bits(self):
        # a packed value must be an n-bit vector
        for value, n in ((1 << 4, 4), (-1, 4), (1, 0)):
            with pytest.raises(ValueError, match="must fit"):
                BitShares(value, n)

    def test_pack_unpack_round_trip(self):
        rng = random.Random(9)
        for n in (1, 7, 8, 9, 104):
            bits = tuple(rng.getrandbits(1) for _ in range(n))
            assert unpack_bits(pack_bits(bits), n) == bits

    def test_pack_is_little_endian_bit_order(self):
        assert pack_bits((1, 0, 0, 0, 0, 0, 0, 0, 1)) == b"\x01\x01"

    @staticmethod
    def reference_pack(bits):
        # bit i of the vector is bit i % 8 of byte i // 8
        return bytes(sum(bits[i] << (i % 8) for i in range(at, min(at + 8, len(bits))))
                     for at in range(0, len(bits), 8))

    @staticmethod
    def reference_unpack(data, n):
        return tuple((data[i // 8] >> (i % 8)) & 1 for i in range(n))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1000, 1 << 17])
    def test_pack_unpack_match_a_reference_loop(self, n):
        rng = random.Random(n)
        bits = tuple(rng.getrandbits(1) for _ in range(n))
        packed = pack_bits(bits)
        assert packed == self.reference_pack(bits)
        assert len(packed) == (n + 7) // 8
        assert unpack_bits(packed, n) == self.reference_unpack(packed, n) == bits

    def test_unpack_ignores_bits_beyond_n(self):
        assert unpack_bits(b"\xff\xff", 9) == (1,) * 9

    def test_lane_fields_round_trip(self):
        rng = random.Random(12)
        for width, count in ((1, 0), (1, 13), (5, 1), (7, 40), (500, 3)):
            values = [rng.getrandbits(width) for _ in range(count)]
            joined = join_lanes(values, width)
            assert joined == sum(v << (i * width) for i, v in enumerate(values))
            assert split_lanes(joined, width, count) == values

    def test_long_lane_values_split_by_halving(self):
        rng = random.Random(14)
        for width, count in ((128, 100), (9, 2000), (8193, 2)):
            values = [rng.getrandbits(width) for _ in range(count)]
            joined = join_lanes(values, width)
            assert split_lanes(joined, width, count) == values
            # bits above the last field are ignored
            assert split_lanes(joined | (1 << (width * count)), width,
                               count) == values

    def test_packed_shares(self):
        share_ = BitShares(0b0101, 4)
        assert (share_.value, share_.n) == (0b0101, 4)
        assert int_to_bits(share_.value, share_.n) == (1, 0, 1, 0)
        assert share_ == BitShares(0b0101, 4)
        assert BitShares(0, 0).n == 0

    def test_rows_transpose_into_lane_words(self):
        rng = random.Random(13)
        for width, count in ((4, 1), (8, 17), (48, 64)):
            rows = [rng.getrandbits(width) for _ in range(count)]
            words = rows_to_lanes(rows, width)
            for j, word in enumerate(words):
                for i, row in enumerate(rows):
                    # bit j counts from the row's most significant end
                    assert (word >> i) & 1 == (row >> (width - 1 - j)) & 1
        assert rows_to_lanes([], 3) == [0, 0, 0]


# --------------------------------------------------------------------------
# channels


class TestChannels:
    def test_frame_encoding(self):
        assert encode_frame(5, b"ab") == b"\x00\x00\x00\x03\x05ab"

    def test_loopback_round_trip(self):
        sizes = []

        def echo():
            payload = yield from recv_frame(MSG_OUTPUT_SHARE)
            sizes.append((yield from send_frame(MSG_OUTPUT_SHARE, payload)))

        ch = InlineLoopback(echo())
        n = ch.send(MSG_OUTPUT_SHARE, b"xyz")
        kind, payload, size = ch.recv()
        assert (kind, payload) == (MSG_OUTPUT_SHARE, b"xyz")
        assert n == size == sizes[0] == 4 + 1 + 3

    def test_loopback_close_unblocks_peer(self):
        def peer():
            yield from recv_frame(1)

        ch = InlineLoopback(peer())
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.send(1, b"late")
        # the peer, waiting for a frame, sees the channel close
        with pytest.raises(ChannelClosed):
            ch.finish()

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

        ch = InlineLoopback(pong(), one_way_delay=0.05)
        start = time.monotonic()
        assert drive(ping(), ch) == b"gnip"
        ch.finish()
        assert time.monotonic() - start >= 0.1

    def test_inline_loopback_delay_and_peer_result(self):
        def peer():
            yield from send_frame(1, b"ping")
            return (yield from recv_frame(1))

        ch = InlineLoopback(peer(), one_way_delay=0.05)
        start = time.monotonic()
        assert ch.recv()[1] == b"ping"
        ch.send(1, b"pong")
        assert ch.finish() == b"pong"
        assert time.monotonic() - start >= 0.1

    def test_inline_loopback_reports_peer_failure(self):
        def peer():
            yield from send_frame(1, b"x")
            raise ValueError("peer broke")

        ch = InlineLoopback(peer())
        ch.recv()
        with pytest.raises(ChannelClosed):
            ch.recv()
        with pytest.raises(ValueError, match="peer broke"):
            ch.finish()

    def test_inline_loopback_detects_both_sides_waiting(self):
        def peer():
            yield from recv_frame(1)

        ch = InlineLoopback(peer())
        with pytest.raises(ProtocolError):
            ch.recv()
        with pytest.raises(ChannelClosed):
            ch.finish()

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
        port, accept = TcpChannel.serve_one()
        # the listening socket queues the connection until accept()
        client = TcpChannel.connect("127.0.0.1", port)
        server = accept()
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
# dealer material


class TestDealer:
    def test_triples_multiply_correctly(self):
        mat0, mat1 = dealer_gen(64, 0, random.Random(1))
        a0, b0, c0 = mat0.triples.take(64)
        a1, b1, c1 = mat1.triples.take(64)
        assert (a0 ^ a1) & (b0 ^ b1) == c0 ^ c1

    def test_stream_exhaustion(self):
        stream = TripleStream(0, 0, 0, 4)
        stream.take(3)
        assert stream.pos == 3
        with pytest.raises(SetupUnderprovisioned):
            stream.take(2)

    def test_transfer_material_is_consistent(self):
        mat0, mat1 = dealer_gen(0, 8, random.Random(2))
        assert mat0.transfers == mat1.transfers == 8
        (d, pad), (r0, r1) = mat0.transfer, mat1.transfer
        assert 0 < d < 0xff  # both choices occur
        for i in range(8):
            lane = 128 * i
            assert (pad >> lane) & ((1 << 128) - 1) == (
                (r1 if (d >> i) & 1 else r0) >> lane) & ((1 << 128) - 1)

    def test_mask_seed_is_shared(self):
        mat0, mat1 = dealer_gen(4, 0, random.Random(3))
        assert mat0.input_mask_seed == mat1.input_mask_seed


# --------------------------------------------------------------------------
# GMW backend


class TestGmw:
    def test_matches_plaintext_on_random_circuits(self):
        rng = random.Random(2024)
        for trial in range(150):
            circuit = random_circuit(rng)
            inputs0, inputs1 = random_inputs(circuit, rng)
            expected = evaluate_plaintext(circuit, {**inputs0, **inputs1})
            out0, out1, _, _ = run_backend(circuit, "gmw", inputs0, inputs1,
                                           seed=trial)
            assert out0 == expected
            assert out1 is None

    def test_distinct_pair_agrees_with_rule_overlap(self):
        rng = random.Random(5)
        circuit = build_batch_query(8)
        for trial in range(30):
            q = random_rule(8, rng)
            h = random_rule(8, rng)
            out0, out1, _, _ = run_backend(circuit, "gmw", *rule_inputs(q, h),
                                           seed=trial)
            assert out0 == ((0,) if overlaps(q, h) else (1,))
            assert out1 is None

    def test_online_rounds_equal_and_depth_plus_reveal(self):
        rng = random.Random(11)
        circuit = build_batch_query(16)
        for k in (1, 3):
            inputs0, inputs1 = TestLanes.lane_inputs(circuit, k, rng)
            _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1,
                                       lanes=k)
            assert t0.online_rounds == t1.online_rounds
            assert t0.online_rounds == circuit.and_depth() + 1
            assert circuit.and_depth() == expected_and_depth(16)

    def test_xor_only_circuit_needs_one_round(self):
        c = Circuit()
        c.add_input_group(0, "a", 2)
        c.add_input_group(0, "b", 2)
        c.mark_output(c.xor(0, 2))
        c.mark_output(c.xor(1, 3))
        out0, _, t0, _ = run_backend(c, "gmw", {"a": [1, 0], "b": [1, 1]}, {})
        assert out0 == (0, 1)
        assert t0.online_rounds == 1

    def test_input_sharing_sends_no_online_input_frames(self):
        circuit = build_batch_query(4)
        rng = random.Random(1)
        inputs0, inputs1 = random_inputs(circuit, rng)
        _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1)
        for t in (t0, t1):
            kinds = {e.kind for e in t.entries if e.phase == ONLINE}
            assert kinds == {MSG_AND_OPENING, MSG_INPUT_SHARE, MSG_OUTPUT_SHARE}
            setup_kinds = {e.kind for e in t.entries if e.phase == SETUP}
            assert setup_kinds == {MSG_SETUP_TRIPLES}
            # the one INPUT_SHARE frame is the release's choice frame, in
            # the round after the last AND level
            (choice,) = [e for e in t.entries if e.kind == MSG_INPUT_SHARE]
            assert choice.round_index == t.online_rounds == (
                circuit.and_depth() + 1)
            assert max(e.round_index for e in t.entries
                       if e.kind == MSG_AND_OPENING) == circuit.and_depth()

    @staticmethod
    def run_short(triples_short: int, cross_short: int, short: str) -> None:
        """A session whose dealer provides too few triples or cross
        products; the error names the stream that ran short."""
        circuit = build_batch_query(4)
        rng = random.Random(1)
        inputs0, inputs1 = random_inputs(circuit, rng)
        n_cross = circuit.cross_count() - cross_short
        n_triples = circuit.and_count() - circuit.cross_count() - triples_short
        mat0, mat1 = dealer_gen(n_triples, 0, rng, cross=[0, n_cross])
        ch = InlineLoopback(gmw_steps(circuit, 1, inputs1, mat1))
        with pytest.raises(SetupUnderprovisioned, match=f"needed .* {short},"):
            drive(gmw_steps(circuit, 0, inputs0, mat0), ch)

    def test_underprovisioned_dealer_aborts(self):
        self.run_short(triples_short=1, cross_short=0, short="beaver triples")

    def test_underprovisioned_cross_material_aborts(self):
        self.run_short(triples_short=0, cross_short=1, short="cross products")

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
            drive(gmw_steps(circuit, 0, inputs0, mat0),
                  InlineLoopback(hangs_up()))

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
    def test_matches_plaintext_on_random_circuits(self):
        rng = random.Random(4321)
        for trial in range(100):
            circuit = random_circuit(rng)
            inputs0, inputs1 = random_inputs(circuit, rng)
            expected = evaluate_plaintext(circuit, {**inputs0, **inputs1})
            out0, out1, _, _ = run_backend(circuit, "yao", inputs0, inputs1,
                                           seed=trial)
            assert out0 == expected
            assert out1 is None  # the garbler learns nothing

    def test_single_not_gate(self):
        c = Circuit()
        c.add_input_group(0, "a", 2)
        c.mark_output(c.not_(0))
        c.mark_output(c.not_(1))
        out0, _, _, _ = run_backend(c, "yao", {"a": [1, 0]}, {})
        assert out0 == (0, 1)

    def test_two_online_rounds_regardless_of_size(self):
        rng = random.Random(6)
        circuit = build_batch_query(8)
        for k in (1, 8):
            inputs0, inputs1 = TestLanes.lane_inputs(circuit, k, rng)
            _, _, t0, t1 = run_backend(circuit, "yao", inputs0, inputs1,
                                       lanes=k)
            assert t0.online_rounds == t1.online_rounds == 2

    def test_tables_travel_during_setup(self):
        circuit = build_batch_query(8)
        rng = random.Random(7)
        inputs0, inputs1 = random_inputs(circuit, rng)
        _, _, t0, t1 = run_backend(circuit, "yao", inputs0, inputs1)
        for t in (t0, t1):
            setup_kinds = {e.kind for e in t.entries if e.phase == SETUP}
            assert setup_kinds == {MSG_SETUP_TRIPLES, MSG_GARBLED_TABLES}
            online_kinds = {e.kind for e in t.entries if e.phase == ONLINE}
            assert online_kinds == {MSG_INPUT_SHARE, MSG_LABELS, MSG_OUTPUT_SHARE}
        table_entry = next(
            e for e in t1.entries
            if e.kind == MSG_GARBLED_TABLES and e.direction == "sent"
        )
        # one 16-byte row per cross gate, two per OR-tree AND
        assert (circuit.cross_count(), circuit.and_count()) == (16, 23)
        assert table_entry.n_bytes == 5 + 16 * 16 + 32 * 7

    def test_missing_transfer_material_aborts(self):
        circuit = build_batch_query(4)
        rng = random.Random(8)
        inputs0, _ = random_inputs(circuit, rng)
        mat0, _ = dealer_gen(0, 0, rng)
        with pytest.raises(SetupUnderprovisioned):
            next(evaluate_steps(circuit, inputs0, mat0))

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
        with pytest.raises(ValueError, match="belongs to the other party"):
            next(garble_steps(circuit, inputs1, mat0, random.Random(1)))
        with pytest.raises(ValueError, match="belongs to the other party"):
            next(evaluate_steps(circuit, inputs0, mat1))

    def test_runs_over_tcp(self):
        run_over_tcp("yao")


# --------------------------------------------------------------------------
# cross-backend and transcript behaviour


class TestLanes:
    """A circuit evaluated over k lanes equals k plaintext evaluations."""

    @staticmethod
    def lane_circuit(rng: random.Random, clear: bool = False) -> Circuit:
        """Random gates over the querier's groups, which every lane reads.

        With ``clear`` the holder also has a group, one bit per lane, whose
        clear wires each feed cross gates with a querier wire and with an
        XOR of two, at the first AND level, and cross gates above it.
        """
        c = Circuit()
        q = c.add_input_group(0, "q", 3)
        a = c.add_input_group(0, "a", 3)
        c.add_input_group(0, "b", 4)
        c.add_input_group(0, "d", 2)
        clear_wires = c.add_input_group(1, "h", 3) if clear else ()
        secret = list(range(c.n_wires - len(clear_wires)))
        for h in clear_wires:
            secret.append(c.and_(rng.choice(q), h))
            secret.append(c.and_(h, c.xor(rng.choice(a), rng.choice(q))))
        for _ in range(40):
            op = rng.randrange(4 if clear else 3)
            x = rng.choice(secret)
            if op == 0:
                secret.append(c.and_(x, rng.choice(secret)))
            elif op == 1:
                secret.append(c.xor(x, rng.choice(secret)))
            elif op == 2:
                secret.append(c.not_(x))
            else:  # a cross gate above the first level
                secret.append(c.and_(rng.choice(clear_wires), x))
        for w in rng.sample(secret, k=4):
            c.mark_output(w)
        c.mark_output(secret[-1])
        return c

    @staticmethod
    def lane_inputs(circuit, lanes, rng):
        """Per-party inputs: a bit per querier wire, a lane word per holder
        wire."""
        by_party = ({}, {})
        for g in circuit.input_groups:
            width = lanes if g.party == 1 else 1
            by_party[g.party][g.name] = [rng.getrandbits(width) for _ in g.wires]
        return by_party

    @staticmethod
    def lane_plaintext(circuit, inputs, lane):
        flat = {g.name: [(v >> lane) & 1 if g.party == 1 else v
                         for v in inputs[g.name]]
                for g in circuit.input_groups}
        return evaluate_plaintext(circuit, flat)

    @staticmethod
    def run(circuit, backend, inputs0, inputs1, lanes, seed):
        mat0, mat1 = dealer_for_circuit(circuit, backend, random.Random(seed),
                                        lanes=lanes)
        ch = InlineLoopback(party_steps(circuit, backend, 1, inputs1, mat1,
                                        garble_rng=random.Random(seed + 1),
                                        lanes=lanes))
        out0 = drive(party_steps(circuit, backend, 0, inputs0, mat0,
                                 lanes=lanes), ch)
        assert ch.finish() is None
        if backend == "gmw":
            for stream in (mat0.triples, mat1.triples, mat0.cross, mat1.cross):
                assert stream.pos == stream.n
        return out0

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("lanes", [1, 2, 3, 9, 64])
    def test_each_lane_matches_plaintext(self, backend, lanes):
        rng = random.Random(500 + lanes)
        for trial in range(12):
            circuit = self.lane_circuit(rng)
            inputs0, inputs1 = self.lane_inputs(circuit, lanes, rng)
            got = self.run(circuit, backend, inputs0, inputs1, lanes, trial)
            both = {**inputs0, **inputs1}
            for lane in range(lanes):
                expected = self.lane_plaintext(circuit, both, lane)
                # outputs are ordered by wire, then lane
                assert got[lane::lanes] == expected, (trial, lane)

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_cross_gates_match_plaintext(self, backend, lanes):
        rng = random.Random(700 + lanes)
        for trial in range(8):
            circuit = self.lane_circuit(rng, clear=True)
            _, crosses, _ = circuit.and_layers()
            # cross gates at the first AND level and above it
            assert crosses[1] and any(crosses[2:])
            inputs0, inputs1 = self.lane_inputs(circuit, lanes, rng)
            got = self.run(circuit, backend, inputs0, inputs1, lanes, trial)
            both = {**inputs0, **inputs1}
            for lane in range(lanes):
                expected = self.lane_plaintext(circuit, both, lane)
                assert got[lane::lanes] == expected, (trial, lane)

    def test_dealer_material_scales_with_lanes(self):
        circuit = build_batch_query(8)
        mat0, _ = dealer_for_circuit(circuit, "gmw", random.Random(1), lanes=5)
        # 16 comparator cross gates, 7 OR-tree ANDs, and a release transfer
        # per output and lane
        assert circuit.cross_count() == 16
        assert mat0.triples.n == 5 * 7
        assert mat0.cross.n == 5 * 16
        assert mat0.transfers == 5
        # the querier's groups are shared: one transfer per wire at any k
        mat0, mat1 = dealer_for_circuit(circuit, "yao", random.Random(1),
                                        lanes=5)
        assert mat0.transfers == mat1.transfers == 16

    def test_level_1_cross_gates_open_one_querier_bit_at_any_lane_count(self):
        # The secret wires are an XOR and a NOT of querier inputs, so they
        # hold the same bit in every lane.
        c = Circuit()
        q = c.add_input_group(0, "q", 2)
        h = c.add_input_group(1, "h", 2)
        c.mark_output(c.and_(c.xor(q[0], q[1]), h[0]))
        c.mark_output(c.and_(c.not_(q[0]), h[1]))
        rng = random.Random(41)
        for lanes in (1, 8, 64):
            inputs1 = {"h": [rng.getrandbits(lanes) for _ in h]}
            out0, _, t0, _ = run_backend(c, "gmw", {"q": [1, 1]}, inputs1,
                                         lanes=lanes)
            openings = [(e.direction, e.n_bytes) for e in t0.entries
                        if e.kind == MSG_AND_OPENING]
            # a 5-byte frame header; the querier opens 2 bits, the holder
            # 2 per lane
            assert openings == [("sent", 5 + 1),
                                (RECEIVED, 5 + (2 * lanes + 7) // 8)]
            for lane in range(lanes):
                assert out0[lane::lanes] == self.lane_plaintext(
                    c, {"q": [1, 1], **inputs1}, lane)

    def test_lane_inputs_are_range_checked(self):
        circuit = self.lane_circuit(random.Random(1))
        inputs0, _ = self.lane_inputs(circuit, 4, random.Random(2))
        inputs0["a"][0] = 1 << 4
        mat0, _ = dealer_for_circuit(circuit, "gmw", random.Random(3), lanes=4)
        with pytest.raises(ValueError, match="one per lane"):
            next(gmw_steps(circuit, 0, inputs0, mat0, lanes=4))


class TestHalfGates:
    """Fixed-key AES, lane-wise doubling and half-gates against plain loops."""

    LABEL_MASK = (1 << 128) - 1

    def test_aes_matches_fips_197(self):
        # FIPS-197, appendix C.1
        cipher = Aes128Ecb(bytes(range(16)))
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert cipher.encrypt(plain).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert cipher.encrypt(plain * 3) == cipher.encrypt(plain) * 3
        with pytest.raises(ValueError):
            cipher.encrypt(plain[:15])

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
        word = join_lanes(lanes, 128)
        doubled = yao._double(word, yao._lane_ones(len(lanes)))
        assert split_lanes(doubled, 128, len(lanes)) == [
            self.double(x) for x in lanes]
        assert doubled >> (128 * len(lanes)) == 0

    def reference_garble(self, circuit, rng, lanes, clear=None):
        """Half-gates one (gate, lane) at a time; returns (delta, labels, tables).

        ``clear`` maps each clear wire to its lane word; a cross gate is a
        garbler half-gate with the one row T = H(A0) ^ H(A1) ^ b delta.
        """

        def h(x, tweak):
            s = self.double(x)
            block = yao._PI.encrypt((s ^ tweak).to_bytes(16, "little"))
            return int.from_bytes(block, "little") ^ s

        delta = rng.getrandbits(128) | 1
        label = {}  # (wire, lane) -> zero-label
        for group in circuit.input_groups:
            if group.party == 1:
                continue
            for w in group.wires:
                # the querier's wires have one label pair, which every lane reads
                x = rng.getrandbits(128)
                for i in range(lanes):
                    label[w, i] = x
        rows = {}  # (output wire, lane) -> (T_G, T_E)
        for kind, a, b, out in circuit.gates:
            for i in range(lanes):
                if kind == XOR:
                    label[out, i] = label[a, i] ^ label[b, i]
                elif kind == NOT:
                    label[out, i] = label[a, i] ^ delta
                elif b in circuit.clear_wires:
                    a0 = label[a, i]
                    j = 2 * (out * lanes + i)
                    bit = (clear[b] >> i) & 1
                    t = h(a0, j) ^ h(a0 ^ delta, j) ^ (delta if bit else 0)
                    label[out, i] = h(a0, j) ^ (t if a0 & 1 else 0)
                    rows[out, i] = (t,)
                else:
                    a0, b0 = label[a, i], label[b, i]
                    j = 2 * (out * lanes + i)
                    t_g = h(a0, j) ^ h(a0 ^ delta, j) ^ (delta if b0 & 1 else 0)
                    w_g = h(a0, j) ^ (t_g if a0 & 1 else 0)
                    t_e = h(b0, j + 1) ^ h(b0 ^ delta, j + 1) ^ a0
                    w_e = h(b0, j + 1) ^ (t_e ^ a0 if b0 & 1 else 0)
                    label[out, i] = w_g ^ w_e
                    rows[out, i] = (t_g, t_e)
        # Each AND level: its cross gates, then its other AND gates, by
        # batch; a batch holds its rows by gate, then lane, and for an AND
        # batch first every T_G word, then every T_E word.
        ands, crosses, _ = circuit.and_layers()
        tables = []
        for level in range(len(ands)):
            for layer, blocks in ((crosses[level], 2), (ands[level], 4)):
                per_call = max(1, yao._BATCH_BLOCKS // (blocks * lanes))
                for at in range(0, len(layer), per_call):
                    batch = layer[at : at + per_call]
                    for half in range(blocks // 2):
                        tables += [rows[g[3], i][half].to_bytes(16, "little")
                                   for g in batch for i in range(lanes)]
        return delta, label, b"".join(tables)

    @pytest.mark.parametrize("budget", [None, 8])
    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_tables_equal_a_per_lane_reference(self, monkeypatch, lanes,
                                               budget):
        if budget is not None:
            # two gates per hash call, so layers split into several batches
            monkeypatch.setattr(yao, "_BATCH_BLOCKS", budget * lanes)
        rng = random.Random(80 + lanes)
        for trial in range(3):
            circuit = TestLanes.lane_circuit(rng)
            delta, label0, tables = yao._garble(circuit, random.Random(trial),
                                                lanes, {})
            ref_delta, ref_label, ref_tables = self.reference_garble(
                circuit, random.Random(trial), lanes)
            assert delta == ref_delta
            assert len(tables) == 32 * lanes * circuit.and_count()
            assert tables == ref_tables
            for w in range(circuit.n_wires):
                assert split_lanes(label0[w], 128, lanes) == [
                    ref_label[w, i] for i in range(lanes)]

    @pytest.mark.parametrize("budget", [None, 8])
    @pytest.mark.parametrize("lanes", [1, 3, 64])
    def test_cross_gate_rows_equal_a_per_lane_reference(self, monkeypatch,
                                                        lanes, budget):
        if budget is not None:
            # four cross gates or two ANDs per hash call
            monkeypatch.setattr(yao, "_BATCH_BLOCKS", budget * lanes)
        rng = random.Random(90 + lanes)
        for trial in range(3):
            circuit = TestLanes.lane_circuit(rng, clear=True)
            clear = {w: rng.getrandbits(lanes) for w in circuit.clear_wires}
            delta, label0, tables = yao._garble(circuit, random.Random(trial),
                                                lanes, clear)
            ref_delta, ref_label, ref_tables = self.reference_garble(
                circuit, random.Random(trial), lanes, clear)
            assert delta == ref_delta
            cross = circuit.cross_count()
            assert cross >= 6
            assert len(tables) == 16 * lanes * (
                cross + 2 * (circuit.and_count() - cross))
            assert tables == ref_tables
            for w in range(circuit.n_wires):
                if w not in circuit.clear_wires:
                    assert split_lanes(label0[w], 128, lanes) == [
                        ref_label[w, i] for i in range(lanes)]

    def test_released_values_fit_one_hash_block(self):
        with pytest.raises(ValueError, match="at most 16 bytes"):
            next(yao.release_steps(3, [0], [(bytes(17), bytes(17))]))
        with pytest.raises(ValueError, match="at most 16 bytes"):
            next(yao.open_steps([0], 17))

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_four_row_tables_are_rejected(self, lanes):
        circuit = build_batch_query(4)
        inputs0, _ = TestLanes.lane_inputs(circuit, lanes, random.Random(5))
        mat0, _ = dealer_for_circuit(circuit, "yao", random.Random(6),
                                     lanes=lanes)
        ch = InlineLoopback(evaluate_steps(circuit, inputs0, mat0, lanes=lanes))
        ch.send(MSG_GARBLED_TABLES, bytes(64 * lanes * circuit.and_count()))
        with pytest.raises(ProtocolError, match="garbled table"):
            ch.finish()


class TestBackendAgreement:
    def test_backends_agree_on_width_104_pairs(self):
        rng = random.Random(99)
        circuit = build_batch_query(104)
        for trial in range(3):
            q = random_rule(104, rng)
            h = random_rule(104, rng)
            inputs0, inputs1 = rule_inputs(q, h)
            g0, _, _, _ = run_backend(circuit, "gmw", inputs0, inputs1, seed=trial)
            y0, _, _, _ = run_backend(circuit, "yao", inputs0, inputs1, seed=trial)
            assert g0 == y0 == ((0,) if overlaps(q, h) else (1,))

    def test_one_sided_reveal(self):
        circuit = build_batch_query(8)
        rng = random.Random(13)
        inputs0, inputs1 = random_inputs(circuit, rng)
        expected = evaluate_plaintext(circuit, {**inputs0, **inputs1})
        for backend in ("gmw", "yao"):
            out0, out1, t0, t1 = run_backend(circuit, backend, inputs0,
                                             inputs1)
            assert out0 == expected
            assert out1 is None
            received_kinds = {
                e.kind for e in t1.entries if e.direction == RECEIVED
            }
            assert MSG_OUTPUT_SHARE not in received_kinds

    def test_step_generators_share_one_thread_with_a_blocking_party(
            self, monkeypatch):
        def refuse(self):
            raise AssertionError("a session started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        circuit = build_batch_query(8)
        rng = random.Random(29)
        inputs0, inputs1 = TestLanes.lane_inputs(circuit, 2, rng)
        both = {**inputs0, **inputs1}
        # outputs are ordered by wire, then lane
        expected = tuple(bit for pair in zip(
            *(TestLanes.lane_plaintext(circuit, both, lane) for lane in (0, 1)))
            for bit in pair)
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
            ends = []

            def record(end):
                ends.append(SpyEnd(end))
                return ends[-1]

            _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1,
                                       seed=seed, spy0=record)
            return ends[0].frames, t0.entries, t1.entries

        runs = [recorded(42) for _ in range(2)]
        assert runs[0][0]  # frames in both directions were recorded
        assert {d for d, _, _ in runs[0][0]} == {"sent", RECEIVED}
        assert runs[0] == runs[1]
        other = recorded(43)
        assert other[0] != runs[0][0]

    def test_byte_totals_match_between_parties(self):
        circuit = build_batch_query(16)
        rng = random.Random(19)
        inputs0, inputs1 = random_inputs(circuit, rng)
        _, _, t0, t1 = run_backend(circuit, "gmw", inputs0, inputs1)
        sent0 = sum(e.n_bytes for e in t0.entries
                    if e.direction == "sent" and e.phase == ONLINE)
        recv1 = sum(e.n_bytes for e in t1.entries
                    if e.direction == RECEIVED and e.phase == ONLINE)
        assert sent0 == recv1


# --------------------------------------------------------------------------
# what the querier's wire looks like


class SpyEnd:
    """Records every frame sent and received, in order, with its payload,
    while delegating to the real endpoint."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []  # (direction, kind, payload)

    @property
    def received(self):
        return [(kind, payload) for direction, kind, payload in self.frames
                if direction == RECEIVED]

    def send(self, kind, payload):
        self.frames.append(("sent", kind, bytes(payload)))
        return self.inner.send(kind, payload)

    def recv(self):
        kind, payload, size = self.inner.recv()
        self.frames.append((RECEIVED, kind, bytes(payload)))
        return kind, payload, size

    def close(self):
        self.inner.close()


class TruncatingEnd:
    """Party 0's channel end, with the last byte cut from the first frame
    of ``kind`` that either party sends."""

    def __init__(self, inner, kind):
        self.inner = inner
        self.kind = kind

    def cut(self, kind, payload):
        if kind != self.kind:
            return payload
        self.kind = None
        return payload[:-1]

    def send(self, kind, payload):
        return self.inner.send(kind, self.cut(kind, payload))

    def recv(self):
        kind, payload, size = self.inner.recv()
        short = self.cut(kind, payload)
        return kind, short, size - len(payload) + len(short)


@pytest.mark.parametrize("backend,name", [
    ("gmw", "AND_OPENING"),
    ("gmw", "INPUT_SHARE"),
    ("gmw", "OUTPUT_SHARE"),
    ("yao", "INPUT_SHARE"),
    ("yao", "LABELS"),
    ("yao", "OUTPUT_SHARE"),
])
def test_a_short_online_frame_is_refused_naming_its_size(backend, name):
    (kind,) = [k for k, v in KIND_NAMES.items() if v == name]
    circuit = build_batch_query(8)
    rng = random.Random(31)
    inputs0, inputs1 = TestLanes.lane_inputs(circuit, 3, rng)
    mat0, mat1 = dealer_for_circuit(circuit, backend, rng, lanes=3)
    ch = InlineLoopback(party_steps(circuit, backend, 1, inputs1, mat1,
                                    garble_rng=random.Random(1), lanes=3))
    with pytest.raises(ProtocolError, match=f"{name} frame of") as caught:
        try:
            drive(party_steps(circuit, backend, 0, inputs0, mat0, lanes=3),
                  TruncatingEnd(ch, kind))
        except ChannelClosed:
            ch.finish()  # the holder refused the frame
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
        inputs0, _ = TestLanes.lane_inputs(circuit, lanes, rng)
        holder_a = TestLanes.lane_inputs(circuit, lanes, random.Random(100))[1]
        holder_b = {name: [0] * len(bits) for name, bits in holder_a.items()}
        # Significant bits of each online frame (the rest of a last byte is
        # padding).  An AND level's opening carries 2 bits per AND gate and
        # lane and 1 per cross gate and lane, except that at level 1 the
        # querier opens 1 bit per cross gate.  The release carries one
        # masked choice bit per output and lane to the holder, and two
        # padded 1-byte values per output and lane back.
        ands, crosses, _ = circuit.and_layers()
        n = len(circuit.output_wires) * lanes
        to_querier = [(2 * len(a) + len(c)) * lanes
                      for a, c in zip(ands[1:], crosses[1:])] + [16 * n]
        to_holder = [2 * len(a) * lanes + len(c) * (1 if level == 1 else lanes)
                     for level, (a, c) in enumerate(zip(ands, crosses))
                     if level] + [n]
        assert all(to_querier) and all(to_holder)
        for holder in (holder_a, holder_b):
            counts = {"sent": [0, 0], RECEIVED: [0, 0]}  # ones, bits
            for session in range(40):
                spies = []

                def make_spy(end, spies=spies):
                    spies.append(SpyEnd(end))
                    return spies[-1]

                run_backend(circuit, "gmw", inputs0, holder,
                            seed=1000 + session, spy0=make_spy, lanes=lanes)
                for direction, widths in (("sent", to_holder),
                                          (RECEIVED, to_querier)):
                    payloads = [payload for d, _, payload in spies[0].frames
                                if d == direction]
                    assert len(payloads) == len(widths)
                    for payload, width in zip(payloads, widths):
                        value = (int.from_bytes(payload, "little")
                                 & ((1 << width) - 1))
                        counts[direction][0] += bin(value).count("1")
                        counts[direction][1] += width
            for direction, least in (("sent", 5000), (RECEIVED, 10_000)):
                ones, total = counts[direction]
                assert total > least
                _, p_value = stats.chisquare([ones, total - ones])
                assert p_value > 0.01, direction
