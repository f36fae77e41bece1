"""End-to-end tests of the private rule-matching primitive."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
import socket
import struct
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from scipy import stats

from prelude import distinct_match
from prelude.distinct_match import (
    DUMMY_HOP,
    MAX_ENTRIES,
    LoopbackEndpoint,
    NextHopId,
    QueryAborted,
    QueryResult,
    RuleEntry,
    SdxMatchService,
)
from prelude.circuits import BatchQueryCircuit
from prelude.control import table_answer
from prelude.rules import (
    FlowSpec,
    Packet,
    PROTO_TCP,
    RULE_WIDTH,
    TernaryRule,
    encode,
    matches,
    overlaps,
    random_rule,
)
from prelude.smpc import (
    MSG_AND_OPENING,
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
    MSG_INPUT_SHARE,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    ChannelClosed,
    ProtocolError,
    SessionTranscript,
    TcpChannel,
    dealer_for_circuit,
    drive,
    recorded,
    recv_frame,
    run_pair,
    send_frame,
)
from prelude.smpc import channel, yao
from prelude.smpc.channel import MAX_FRAME_BYTES


def brute_force_hops(local: TernaryRule, entries) -> set[NextHopId]:
    """Independent oracle: try every packet of the (small) rule space."""
    hops = set()
    for entry in entries:
        overlap = any(
            matches(local, Packet(local.width, v))
            and matches(entry.rule, Packet(local.width, v))
            for v in range(1 << local.width)
        )
        if overlap:
            hops.add(entry.next_hop)
    return hops


def make_entry(rule: TernaryRule, sdx: int, asn: int,
               prefix: str = "10.0.0.0/8") -> RuleEntry:
    return RuleEntry(rule=rule, next_hop=NextHopId(sdx, asn), owner=asn,
                     prefix=prefix)


def fresh_endpoint(entries, seed: int = 7) -> LoopbackEndpoint:
    service = SdxMatchService(sdx_id=1)
    for entry in entries:
        service.register(entry)
    return LoopbackEndpoint(service, seed=seed)


# --------------------------------------------------------------------------
# identifiers


class TestNextHopId:
    def test_bits_round_trip(self):
        rng = random.Random(1)
        for _ in range(50):
            hop = NextHopId(rng.getrandbits(16), rng.getrandbits(32))
            assert NextHopId.from_bytes(hop.to_bytes()) == hop

    def test_dummy_is_all_ones(self):
        # No circuit needs an all-ones dummy any more, since the release
        # hands over the dummy as a value, but the all-ones identifier stays
        # reserved for it.
        assert DUMMY_HOP.to_bytes() == b"\xff" * 6

    def test_range_validation(self):
        with pytest.raises(ValueError):
            NextHopId(1 << 16, 0)
        with pytest.raises(ValueError):
            NextHopId(0, 1 << 32)

    def test_entry_rejects_dummy_hop(self):
        rule = TernaryRule.wildcard(8)
        with pytest.raises(ValueError):
            RuleEntry(rule=rule, next_hop=DUMMY_HOP, owner=1, prefix="p")


# --------------------------------------------------------------------------
# registration semantics


class TestRegistration:
    def test_register_then_query_sees_entry(self):
        rule = TernaryRule(8, 0b1010, 0b1111)
        entry = make_entry(TernaryRule(8, 0b1010, 0b1110), 1, 65001)
        endpoint = fresh_endpoint([entry])
        result = endpoint.query(rule, entry.prefix)
        assert result.hops == {entry.next_hop}

    def test_deregister_removes_entry(self):
        rule = TernaryRule.wildcard(8)
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])
        endpoint.service.deregister(entry)
        assert endpoint.query(rule, entry.prefix) == QueryResult(frozenset())

    def test_duplicate_registration_is_idempotent(self):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        service = SdxMatchService(sdx_id=1)
        service.register(entry)
        service.register(entry)
        assert service.entries_for(entry.prefix) == [entry]

    def test_an_entry_stays_until_each_registration_is_dropped(self):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry, entry])
        endpoint.service.deregister(entry)
        assert endpoint.service.entries_for(entry.prefix) == [entry]
        assert endpoint.query(TernaryRule.wildcard(8), entry.prefix).hops == {
            entry.next_hop}
        endpoint.service.deregister(entry)
        assert endpoint.service.entries_for(entry.prefix) == []

    def test_deregister_unknown_entry_is_a_noop(self, caplog):
        service = SdxMatchService(sdx_id=1)
        with caplog.at_level("WARNING"):
            service.deregister(make_entry(TernaryRule(8, 0, 0), 1, 65001))
        assert "unknown entry" in caplog.text

    def test_equal_next_hops_collapse_in_result(self):
        hop = NextHopId(3, 65003)
        entries = [
            RuleEntry(TernaryRule(8, 0b0000, 0b1100), hop, 65003, "p"),
            RuleEntry(TernaryRule(8, 0b0001, 0b0011), hop, 65003, "p"),
        ]
        endpoint = fresh_endpoint(entries)
        result = endpoint.query(TernaryRule.wildcard(8), "p")
        assert result.hops == {hop}
        assert len(result) == 1

    def test_mixed_widths_under_one_prefix_are_rejected(self):
        narrow = make_entry(TernaryRule(4, 0, 0), 1, 65001)
        wide = make_entry(TernaryRule(8, 0, 0), 2, 65002)
        service = SdxMatchService(sdx_id=1)
        service.register(narrow)
        with pytest.raises(ValueError) as caught:
            service.register(wide)
        assert "width 8" in str(caught.value)
        assert "width 4" in str(caught.value)
        assert service.entries_for(narrow.prefix) == [narrow]
        # the table still answers queries of its own width
        endpoint = LoopbackEndpoint(service, seed=3)
        assert endpoint.query(TernaryRule.wildcard(4), narrow.prefix).hops == {
            narrow.next_hop}
        # another prefix may hold another width
        service.register(make_entry(TernaryRule(8, 0, 0), 2, 65002,
                                    prefix="192.0.2.0/24"))


@pytest.mark.parametrize("backend", ["gmw", "yao"])
class TestPreparedTable:
    """The table keeps each entry's holder row and identifier, built at
    register and dropped at deregister; a session only shuffles them."""

    def answer(self, service, rule, prefix):
        return {hop for hop, _ in table_answer(service.entries_for(prefix),
                                               rule, local=False)}

    def test_writes_between_sessions_change_the_answer(self, backend):
        rng = random.Random(61)
        local = random_rule(8, rng)
        entries = [make_entry(random_rule(8, rng), 6, 600 + i)
                   for i in range(5)]
        endpoint = fresh_endpoint(entries)
        service, prefix = endpoint.service, entries[0].prefix
        answers = []
        for write in (None, make_entry(local, 6, 700), entries[0]):
            if write in entries:
                service.deregister(write)
            elif write is not None:
                service.register(write)
            want = self.answer(service, local, prefix)
            assert endpoint.query(local, prefix, backend=backend).hops == want
            answers.append(want)
        # the registered entry's own rule overlaps the query, and so does
        # the removed one
        assert overlaps(local, entries[0].rule)
        assert answers[1] == answers[0] | {NextHopId(6, 700)}
        assert answers[2] == answers[1] - {entries[0].next_hop}

    def test_a_row_is_built_per_register_and_none_per_session(
            self, monkeypatch, backend):
        built = []
        row = BatchQueryCircuit.row

        def spy(self, party, rule):
            built.append(party)
            return row(self, party, rule)

        monkeypatch.setattr(BatchQueryCircuit, "row", spy)
        rng = random.Random(62)
        entries = [make_entry(random_rule(8, rng), 6, 600 + i)
                   for i in range(6)]
        endpoint = fresh_endpoint(entries)
        assert built == [1] * len(entries)
        del built[:]
        for _ in range(3):
            local = random_rule(8, rng)
            assert endpoint.query(local, entries[0].prefix,
                                  backend=backend).hops == self.answer(
                endpoint.service, local, entries[0].prefix)
        # only the querier's one row, once a session
        assert built == [0] * 3

    def test_a_mismatched_register_leaves_the_table_as_it_was(self, backend):
        rng = random.Random(63)
        entries = [make_entry(random_rule(8, rng), 6, 600 + i)
                   for i in range(4)]
        endpoint = fresh_endpoint(entries)
        service, prefix = endpoint.service, entries[0].prefix
        before = dict(service._tables[prefix])
        with pytest.raises(ValueError, match="rule width 4 does not match"):
            service.register(make_entry(TernaryRule.wildcard(4), 6, 700))
        assert service._tables[prefix] == before
        assert service.entries_for(prefix) == entries
        local = random_rule(8, rng)
        assert endpoint.query(local, prefix, backend=backend).hops == (
            self.answer(service, local, prefix))


# --------------------------------------------------------------------------
# oracle equivalence


class TestOracleEquivalence:
    def test_matches_brute_force_at_width_8(self):
        rng = random.Random(11)
        for trial in range(12):
            entries = [
                make_entry(random_rule(8, rng), rng.randrange(1, 100),
                           rng.randrange(64512, 65535))
                for _ in range(6)
            ]
            endpoint = fresh_endpoint(entries, seed=trial)
            for _ in range(4):
                local = random_rule(8, rng)
                backend = rng.choice(("gmw", "yao"))
                result = endpoint.query(local, "10.0.0.0/8", backend=backend)
                assert result.hops == brute_force_hops(local, entries)

    def test_empty_prefix_fast_path(self):
        endpoint = fresh_endpoint([])
        stats_out = []
        result = endpoint.query(TernaryRule.wildcard(8), "10.9.0.0/16",
                                stats_out=stats_out)
        assert result.hops == frozenset()
        assert stats_out[0].k == 0
        # the querier's padded level-1 opening left with its envelope, so
        # online rounds are the AND depth plus one here too
        assert stats_out[0].online_rounds == 1 == stats_out[0].and_depth + 1
        assert stats_out[0].online_bytes == 5 + 2  # 16 cross gates at w=8
        assert stats_out[0].flights == 2
        assert stats_out[0].setup_bytes > 0  # envelope and ack still flowed

    def test_backends_agree(self):
        rng = random.Random(13)
        entries = [
            make_entry(random_rule(8, rng), 2, 65000 + i) for i in range(5)
        ]
        for trial in range(6):
            local = random_rule(8, rng)
            via_gmw = fresh_endpoint(entries, seed=trial).query(
                local, "10.0.0.0/8", backend="gmw")
            via_yao = fresh_endpoint(entries, seed=trial).query(
                local, "10.0.0.0/8", backend="yao")
            assert via_gmw == via_yao

    def test_full_width_deflection_rules(self):
        # The two-exchange scenario: the holder knows one web-traffic rule
        # deflecting to AS 1 at exchange 1; a second web rule must collide
        # with it, an ssh rule must not.
        web = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80))
        ssh = encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=22))
        entry = make_entry(web, 1, 1, prefix="203.0.113.0/24")
        endpoint = fresh_endpoint([entry])
        hit = endpoint.query(encode(FlowSpec(ip_proto=PROTO_TCP, dst_port=80)),
                             "203.0.113.0/24", backend="yao")
        assert hit.hops == {NextHopId(1, 1)}
        miss = endpoint.query(ssh, "203.0.113.0/24", backend="gmw")
        assert miss.hops == frozenset()


# --------------------------------------------------------------------------
# privacy mechanics


class TestPrivacyMechanics:
    def test_raw_vector_has_one_dummy_per_nonoverlap(self, raw_hops):
        rng = random.Random(17)
        local = TernaryRule(8, 0b11110000, 0b11110000)
        overlapping = make_entry(TernaryRule(8, 0b11110000, 0b11111111), 1, 10)
        disjoint_a = make_entry(TernaryRule(8, 0b00001111, 0b11111111), 2, 20)
        disjoint_b = make_entry(TernaryRule(8, 0b00000000, 0b11110000), 3, 30)
        endpoint = fresh_endpoint([overlapping, disjoint_a, disjoint_b])
        result = endpoint.query(local, "10.0.0.0/8")
        [raw] = raw_hops
        assert raw.count(DUMMY_HOP) == 2
        assert set(raw) - {DUMMY_HOP} == {overlapping.next_hop}
        assert DUMMY_HOP not in result

    def test_shuffle_spreads_positions_uniformly(self, raw_hops):
        local = TernaryRule(8, 0, 0b11000000)
        hit = make_entry(TernaryRule(8, 0, 0), 7, 70)
        chaff = [
            make_entry(TernaryRule(8, 0b11000000, 0b11000000), i + 1, i + 1)
            for i in range(3)
        ]
        endpoint = fresh_endpoint([hit] + chaff, seed=23)
        counts = [0, 0, 0, 0]
        for _ in range(400):
            endpoint.query(local, "10.0.0.0/8")
            counts[raw_hops[-1].index(hit.next_hop)] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_session_stats_round_contract(self):
        rng = random.Random(29)
        entries = [make_entry(random_rule(8, rng), 4, 40 + i) for i in range(3)]
        endpoint = fresh_endpoint(entries)
        for backend, expected_rounds in (("gmw", None), ("yao", 2)):
            stats_out = []
            endpoint.query(TernaryRule.wildcard(8), "10.0.0.0/8",
                           backend=backend, stats_out=stats_out)
            record = stats_out[0]
            assert record.k == 3
            if expected_rounds is None:
                assert record.online_rounds == record.and_depth + 1
            else:
                assert record.online_rounds == expected_rounds

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("case", ["entries", "empty", "width-mismatch"])
    def test_the_first_frame_is_padded(self, monkeypatch, backend, case):
        # The querier sends its first online frame before the ack, so even
        # a session that ends there, at k = 0 or on a width mismatch, shows
        # the holder only dealer-padded bits: over sessions of one fixed
        # rule, each of yao's 16 bits is a fair coin, and each of gmw's 8
        # shifts, a symbol of Z3 in two bit planes, is uniform over Z3.
        frames = sent_frames(monkeypatch)
        width = 4 if case == "width-mismatch" else 8
        table = [make_entry(TernaryRule(width, 0b0110, 0b1111), 1, 10 + i)
                 for i in range(3)]
        endpoint = fresh_endpoint(table, seed=53)
        local = TernaryRule(8, 0b10100000, 0b11110000)
        prefix = "10.9.0.0/16" if case == "empty" else table[0].prefix
        sessions = 300
        for _ in range(sessions):
            if case == "width-mismatch":
                with pytest.raises(QueryAborted, match="width 8"):
                    endpoint.query(local, prefix, backend=backend)
            else:
                endpoint.query(local, prefix, backend=backend)
        kinds = [kind for kind, _, _ in frames]
        firsts = [frames[i + 1] for i, kind in enumerate(kinds)
                  if kind == MSG_ENVELOPE]
        assert len(firsts) == sessions
        assert {kind for kind, _, _ in firsts} == {
            MSG_AND_OPENING if backend == "gmw" else MSG_INPUT_SHARE}
        words = [int.from_bytes(payload, "little")
                 for _, payload, _ in firsts]
        assert {len(payload) for _, payload, _ in firsts} == {2}
        if backend == "gmw":
            for cell in range(8):
                symbols = [(word >> cell & 1) + 2 * (word >> 8 + cell & 1)
                           for word in words]
                assert 3 not in symbols, cell
                _, p_value = stats.chisquare(
                    [symbols.count(v) for v in range(3)])
                assert p_value > 1e-4, cell
            return
        for bit in range(16):
            ones = sum((word >> bit) & 1 for word in words)
            assert stats.binomtest(ones, sessions).pvalue > 1e-4, bit

    def test_aborted_session_raises_query_aborted(self):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def broken(*args, **kwargs):
            """A holder that hangs up before reading a frame."""
            return
            yield

        endpoint.service.serve_steps = broken
        with pytest.raises(QueryAborted):
            endpoint.query(TernaryRule.wildcard(8), entry.prefix)

    def test_width_mismatch_aborts_with_the_holders_error(self):
        entry = make_entry(TernaryRule(4, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])
        for backend in ("gmw", "yao"):
            with pytest.raises(QueryAborted) as caught:
                endpoint.query(TernaryRule.wildcard(8), entry.prefix,
                               backend=backend)
            message = str(caught.value)
            assert message not in ("send on closed channel",
                                   "peer closed the channel")
            assert "width 8" in message and "width 4" in message

    def test_a_table_over_the_cap_is_refused_by_its_holder(self):
        # The ack's k cannot name more than MAX_ENTRIES entries to a
        # querier that would accept them, so the holder refuses the query.
        entries = [make_entry(TernaryRule(1, 0, 0), 1, i)
                   for i in range(MAX_ENTRIES + 1)]
        endpoint = fresh_endpoint(entries)
        with pytest.raises(QueryAborted, match=(
                "table of 4097 entries under 10.0.0.0/8 exceeds the cap of "
                "4096 entries")) as caught:
            endpoint.query(TernaryRule.wildcard(1), "10.0.0.0/8")
        assert isinstance(caught.value.__cause__, ProtocolError)

    @pytest.mark.parametrize("payload,cause", [
        pytest.param(struct.pack(">I", 8), "envelope of 4 bytes is shorter "
                     "than its 5-byte header", id="short-header"),
        pytest.param(struct.pack(">IB", 0, 0) + b"10.0.0.0/8",
                     "envelope rule width 0 is not positive", id="width-0"),
        pytest.param(struct.pack(">IB", 8, 2) + b"10.0.0.0/8",
                     "unknown backend index 2", id="backend-2"),
        pytest.param(struct.pack(">IB", 8, 0) + b"10.0.0.0/\xff",
                     "envelope prefix is not UTF-8", id="prefix-not-utf8"),
        # A peer that still sends the former JSON envelope is refused by
        # name: a JSON object's fifth byte is printable text, never a
        # backend index.
        (b"not json", "unknown backend index 106"),
        (b'{"rule_width": 8, "backend": "gmw"}', "unknown backend index 108"),
        (b"[1, 2]", "unknown backend index 50"),
        (b'{"prefix": "10.0.0.0/8", "rule_width": 8, "backend": "gmw"}',
         "unknown backend index 101"),
    ])
    def test_malformed_envelope_aborts_naming_its_cause(self, monkeypatch,
                                                        payload, cause):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def sends_payload(local, prefix, backend, dealer):
            yield from send_frame(MSG_ENVELOPE, payload)
            yield from recv_frame(MSG_ENVELOPE_ACK)
            return []

        monkeypatch.setattr(distinct_match, "_querier_steps", sends_payload)
        with pytest.raises(QueryAborted) as caught:
            endpoint.query(TernaryRule.wildcard(8), entry.prefix)
        assert cause in str(caught.value)
        assert isinstance(caught.value.__cause__, ProtocolError)

    def test_a_shift_frame_reading_3_aborts_naming_it(self, monkeypatch):
        # A querier whose first frame sets both bit planes of cell 5: the
        # holder refuses the unused symbol before it sends its tables, and
        # the querier sees the holder's error.
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def sends_a_3(local, prefix, backend, dealer):
            yield from send_frame(MSG_ENVELOPE, struct.pack(">IB", 8, 0)
                                  + b"10.0.0.0/8")
            yield from send_frame(MSG_AND_OPENING,
                                  (1 << 5 | 1 << 8 + 5).to_bytes(2, "little"))
            yield from recv_frame(MSG_ENVELOPE_ACK)
            yield from recv_frame(MSG_AND_OPENING)
            return []

        monkeypatch.setattr(distinct_match, "_querier_steps", sends_a_3)
        with pytest.raises(QueryAborted, match=(
                "shift frame reads the unused symbol 3 at cell 5")) as caught:
            endpoint.query(TernaryRule.wildcard(8), entry.prefix)
        assert isinstance(caught.value.__cause__, ProtocolError)

    @pytest.mark.parametrize("ack,cause", [
        pytest.param(struct.pack(">H", 2), "ENVELOPE_ACK frame of 2 bytes, "
                     "expected 3", id="2-bytes"),
        pytest.param(struct.pack(">HBB", 2, 48, 0), "ENVELOPE_ACK frame of "
                     "4 bytes, expected 3", id="4-bytes"),
        pytest.param(struct.pack(">HB", 4097, 48), "envelope ack k 4097 "
                     "exceeds the cap of 4096 entries", id="k-4097"),
        pytest.param(struct.pack(">HB", 2, 32), "incompatible identifier "
                     "width 32", id="id-width-32"),
        # A holder that still sends the former JSON ack is refused by name:
        # only a 3-byte one is read, and "[1]" reads as k = 23345.
        (b"not json", "ENVELOPE_ACK frame of 8 bytes, expected 3"),
        (b"[1]", "envelope ack k 23345 exceeds the cap of 4096 entries"),
        (b'{"id_width": 48}', "ENVELOPE_ACK frame of 16 bytes, expected 3"),
        (b'{"k": 2}', "ENVELOPE_ACK frame of 8 bytes, expected 3"),
        (b'{"k": "x", "id_width": 48}',
         "ENVELOPE_ACK frame of 26 bytes, expected 3"),
        (b'{"k": -3, "id_width": 48}',
         "ENVELOPE_ACK frame of 25 bytes, expected 3"),
        (b'{"k": true, "id_width": 48}',
         "ENVELOPE_ACK frame of 27 bytes, expected 3"),
        (b'{"k": 4097, "id_width": 48}',
         "ENVELOPE_ACK frame of 27 bytes, expected 3"),
        (b'{"k": 2, "id_width": 32}',
         "ENVELOPE_ACK frame of 24 bytes, expected 3"),
    ])
    def test_malformed_ack_fails_naming_its_cause(self, ack, cause):
        def holder():
            yield from recv_frame(MSG_ENVELOPE)
            yield from recv_frame(MSG_AND_OPENING)  # its padded first frame
            yield from send_frame(MSG_ENVELOPE_ACK, ack)

        querier = distinct_match._querier_steps(
            TernaryRule.wildcard(8), "10.0.0.0/8", "gmw",
            distinct_match._SessionDealer(
                random.Random(1), distinct_match.query_template(8), "gmw"))
        with pytest.raises(ProtocolError, match=re.escape(cause)):
            run_pair(querier, holder())

    def test_any_holder_failure_becomes_query_aborted(self):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def failing(*args, **kwargs):
            raise ValueError("holder table is corrupt")
            yield

        endpoint.service.serve_steps = failing
        with pytest.raises(QueryAborted, match="holder table is corrupt"):
            endpoint.query(TernaryRule.wildcard(8), entry.prefix)

    def test_concurrent_queries_are_isolated(self):
        # Sessions on several threads draw from the endpoint's two streams
        # in any interleaving; each session's material is still one deal,
        # so every answer holds.
        rng = random.Random(31)
        entries = [make_entry(random_rule(8, rng), 5, 50 + i) for i in range(4)]
        endpoint = fresh_endpoint(entries)
        locals_ = [random_rule(8, rng) for _ in range(8)]
        expected = [brute_force_hops(rule, entries) for rule in locals_]
        results: list = [[] for _ in locals_]

        def worker(i):
            for backend in ("gmw", "yao") * 5:
                results[i].append(endpoint.query(locals_[i], "10.0.0.0/8",
                                                 backend=backend).hops)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(locals_))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert got == [want] * 10


# --------------------------------------------------------------------------
# session mechanics


def sent_frames(monkeypatch) -> list:
    """Capture (kind, payload, on-wire size) of every frame either party of
    an endpoint's sessions sends, in the order they are sent."""
    captured = []
    pair = distinct_match.run_pair

    def tap(steps):
        reply = None
        while True:
            try:
                op = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = yield op
            if op is not channel.RECV:
                captured.append((*op, reply))

    def tapped(first, second, *args):
        return pair(tap(first), tap(second), *args)

    monkeypatch.setattr(distinct_match, "run_pair", tapped)
    return captured


class TestSessionMechanics:
    def test_loopback_session_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a query session started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rng = random.Random(37)
        entries = [make_entry(random_rule(8, rng), 6, 60 + i) for i in range(3)]
        service = SdxMatchService(sdx_id=6)
        for entry in entries:
            service.register(entry)
        endpoint = LoopbackEndpoint(service, seed=5, one_way_delay=0.015)
        local = random_rule(8, rng)
        for backend in ("gmw", "yao"):
            stats_out = []
            result = endpoint.query(local, "10.0.0.0/8", backend=backend,
                                    stats_out=stats_out)
            assert result.hops == brute_force_hops(local, entries)
            assert stats_out[0].online_wall_time >= 0.030

    @pytest.mark.parametrize("width,k", [(4, 8), (104, 1)])
    def test_yao_counters_are_exact(self, monkeypatch, raw_hops, width,
                                    k):
        rng = random.Random(41 + width)
        entries = [make_entry(random_rule(width, rng), 9, 900 + i)
                   for i in range(k)]
        endpoint = fresh_endpoint(entries)
        frames = sent_frames(monkeypatch)
        # random width-104 rules almost never overlap; query the entry's own
        # rule there so an identifier, not only the dummy, is released
        local = random_rule(width, rng) if width == 4 else entries[0].rule
        stats_out = []
        endpoint.query(local, "10.0.0.0/8", backend="yao",
                       stats_out=stats_out)
        [raw] = raw_hops
        # under yao only the holder sends these kinds, one frame each
        held = [(kind, size) for kind, _, size in frames
                if kind in (MSG_GARBLED_TABLES, MSG_LABELS, MSG_OUTPUT_SHARE)]
        sent = dict(held)
        assert len(held) == len(sent) == 3
        # the comparator's 2w one-row cross gates of 16 bytes per entry; the
        # OR tree is not garbled
        assert sent[MSG_GARBLED_TABLES] == 5 + 32 * width * k
        # two labels per querier input bit and none for the holder's clear
        # rule bits
        assert sent[MSG_LABELS] == 5 + 16 * 4 * width
        # per entry, one 16-byte block: the 6-byte identifier and its tag
        assert sent[MSG_OUTPUT_SHARE] == 5 + 16 * k
        assert stats_out[0].online_rounds == 2
        # yao garbles only the template's level-1 cross gates
        assert stats_out[0].and_depth == 1
        assert sorted(raw) == sorted(
            e.next_hop if overlaps(local, e.rule) else DUMMY_HOP
            for e in entries)

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    def test_a_session_is_recorded_once_from_the_querier(self, monkeypatch,
                                                         backend):
        # Every frame on the wire is recorded once, by the querier, and so
        # is the querier's dealer material when k > 0; nothing records the
        # holder, whose every frame is a querier frame the other way.
        rng = random.Random(91)
        entries = [make_entry(random_rule(8, rng), 9, 900 + i)
                   for i in range(5)]
        endpoint = fresh_endpoint(entries)
        frames = sent_frames(monkeypatch)
        calls = []
        for name in ("record_send", "record_receive"):
            def counting(self, kind, n_bytes,
                         record=getattr(SessionTranscript, name)):
                calls.append(kind)
                record(self, kind, n_bytes)

            monkeypatch.setattr(SessionTranscript, name, counting)
        deals = []
        deal = distinct_match.dealer_for_circuit

        def dealing(*args, **kwargs):
            deals.append(deal(*args, **kwargs))
            return deals[-1]

        monkeypatch.setattr(distinct_match, "dealer_for_circuit", dealing)
        transcripts = querier_transcripts(endpoint, monkeypatch)
        for prefix, k in (("10.0.0.0/8", 5), ("10.9.0.0/16", 0)):
            del frames[:], calls[:], deals[:]
            stats_out = []
            endpoint.query(random_rule(8, rng), prefix, backend=backend,
                           stats_out=stats_out)
            assert stats_out[0].k == k
            # the zero-lane deal before the ack, then the deal over k lanes
            assert len(deals) == 1 + (k > 0)
            dealt = deals[-1][0].serialized_size if k else 0
            assert len(calls) == len(frames), prefix
            t_q = transcripts[-1]
            assert t_q.setup_bytes + t_q.online_bytes == (
                sum(size for _, _, size in frames) + dealt), prefix

    @staticmethod
    def fixed_openings(monkeypatch, sessions: int) -> list[list[int]]:
        """The AND_OPENING frames of gmw sessions of one fixed rule against
        a table of one fixed rule at width 8 and k = 3, whose shuffle
        changes nothing: per session, the querier's shifts, the holder's
        lookup tables and each tree level's two openings."""
        frames = sent_frames(monkeypatch)
        table = [make_entry(TernaryRule(8, 0b01100000, 0b11110000), 1, 10 + i)
                 for i in range(3)]
        endpoint = fresh_endpoint(table, seed=59)
        local = TernaryRule(8, 0b10100000, 0b11100000)
        openings = []
        for _ in range(sessions):
            del frames[:]
            assert endpoint.query(local, table[0].prefix).hops == set()
            openings.append([int.from_bytes(p, "little")
                             for kind, p, _ in frames
                             if kind == MSG_AND_OPENING])
        return openings

    @staticmethod
    def assert_fair(words: list[int], bits: int, what) -> None:
        """Each of the low ``bits`` bits of ``words`` is a fair coin."""
        for bit in range(bits):
            ones = sum((word >> bit) & 1 for word in words)
            assert stats.binomtest(ones, len(words)).pvalue > 1e-4, (what,
                                                                     bit)

    def test_every_tree_level_opening_is_padded(self, monkeypatch):
        # Each OR-tree level opens every gate input under a fresh dealer
        # mask.  A party sees its own share of each opened bit and the
        # peer's, so what it learns is their XOR, the opened value.  Over
        # sessions of one fixed rule against a table of one fixed rule,
        # every opened bit of every tree level, and every bit of each frame
        # on its own, is a fair coin.  At width 8 and k = 3 the tree is one
        # gate of 4 inputs, and opens 4 x 1 x 3 bits each way.
        openings = self.fixed_openings(monkeypatch, 300)
        # the lookup level's two frames are checked elsewhere
        assert {len(frames) for frames in openings} == {4}
        for index in (2, 3):
            self.assert_fair([frames[index] for frames in openings], 12,
                             index)
        self.assert_fair([frames[2] ^ frames[3] for frames in openings], 12,
                         "opened")

    def test_the_holders_lookup_frame_is_padded(self, monkeypatch):
        # The holder's lookup frame holds T'[i, j] = A'[i] AND B'[j] XOR r
        # XOR p[i, j] for all nine entries of each pair and lane, each
        # under a pad p[i, j] XOR r of its own.  Over the same sessions
        # every bit of it, 9 x 4 x 3, is a fair coin, whatever the fixed
        # rules and shifts make of A' and B'.
        openings = self.fixed_openings(monkeypatch, 300)
        self.assert_fair([frames[1] for frames in openings], 108, "lookup")

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    def test_an_empty_session_draws_only_the_first_pad(self, monkeypatch,
                                                       backend):
        # At k = 0 the dealer draws only what pads the querier's first
        # frame from the endpoint's dealer stream: yao's 2w label choice
        # bits without the label pads, or gmw's shifts, two bit planes of w
        # bits and w bits more for each redraw of the positions that read 3.
        drawn = []

        class Counting(random.Random):
            def getrandbits(self, n):
                drawn.append(n)
                return super().getrandbits(n)

        endpoint = fresh_endpoint([])
        endpoint._dealer_rng = Counting(5)
        rng = random.Random(37)
        for width in (8, 104):
            del drawn[:]
            assert endpoint.query(random_rule(width, rng), "10.9.0.0/16",
                                  backend=backend).hops == set()
            if backend == "gmw":
                planes = [n for n in drawn if n]
                assert set(planes) == {width}, drawn
                assert len(planes) % 2 == 0, drawn
            else:
                assert sum(drawn) == 2 * width, drawn

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    def test_the_holders_deal_may_come_first(self, backend):
        # The first pad is dealt when the session's dealer is made, before
        # either party runs.  Two threads may then reach the dealer in
        # either order, and a holder that deals first extends that same
        # pad, which the querier's full material holds.
        template = distinct_match.query_template(8)
        dealer = distinct_match._SessionDealer(random.Random(9), template,
                                               backend)
        first = dealer.first
        assert (first.party, first.lanes) == (0, 0)
        dealer.material(template, backend, 1, 5)
        full = dealer.material(template, backend, 0, 5)
        # the first pad is gmw's shifts u, or yao's choice bits d
        piece = "lookup" if backend == "gmw" else "transfer"
        assert getattr(first, piece)[0] == getattr(full, piece)[0] != 0
        # the draws are those of session order
        in_order = distinct_match._SessionDealer(random.Random(9), template,
                                                 backend)
        assert in_order.first == first
        assert in_order.material(template, backend, 0, 5) == full

        # and a session run in that order answers as the overlap predicate
        rng = random.Random(64)
        entries = [make_entry(random_rule(8, rng), 6, 600 + i)
                   for i in range(5)]
        service = fresh_endpoint(entries).service
        for seed in range(4):
            local = random_rule(8, rng)
            dealer = distinct_match._SessionDealer(random.Random(seed),
                                                   template, backend)
            dealer.material(template, backend, 1, len(entries))
            raw, _, _ = run_pair(
                distinct_match._querier_steps(local, entries[0].prefix,
                                              backend, dealer),
                service.serve_steps(dealer, random.Random(seed)))
            assert sorted(raw) == sorted(
                e.next_hop.to_bytes() if overlaps(local, e.rule)
                else DUMMY_HOP.to_bytes() for e in entries)

    @pytest.mark.parametrize("width,k,gmw_flights", [
        (1, 3, 4), (4, 8, 4), (7, 5, 4), (8, 6, 4), (104, 17, 6)])
    def test_flights_are_exact(self, width, k, gmw_flights):
        # The querier's first frame rides with its envelope and the
        # holder's first frames with its ack.  Yao takes two flights at any
        # shape; gmw two more than its AND depth rounded up to even; an
        # empty table two, whatever the backend.
        rng = random.Random(80 + width)
        entries = [make_entry(random_rule(width, rng), 8, 800 + i)
                   for i in range(k)]
        endpoint = fresh_endpoint(entries)
        for backend, flights in (("gmw", gmw_flights), ("yao", 2)):
            for prefix, want in (("10.0.0.0/8", flights), ("10.9.0.0/16", 2)):
                stats_out = []
                endpoint.query(random_rule(width, rng), prefix,
                               backend=backend, stats_out=stats_out)
                assert stats_out[0].flights == want, (backend, prefix)

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    def test_the_loopback_and_tcp_count_the_same_bytes(self, backend):
        # run_pair passes (kind, payload) pairs and counts each frame
        # FRAME_OVERHEAD bytes above its payload; over a socket the frames
        # are encoded.  The same session records the same counts on both.
        rng = random.Random(97)
        entries = [make_entry(random_rule(8, rng), 9, 900 + i)
                   for i in range(5)]
        endpoint = fresh_endpoint(entries)
        local = random_rule(8, rng)
        stats_out = []
        endpoint.query(local, "10.0.0.0/8", backend=backend,
                       stats_out=stats_out)

        # The first pad is dealt with the dealer; the holder's thread may
        # then deal the rest before or after the querier takes it.
        dealer = distinct_match._SessionDealer(
            random.Random(5), distinct_match.query_template(8), backend)
        with socket.create_server(("127.0.0.1", 0)) as server:
            querier = TcpChannel(
                socket.create_connection(server.getsockname()))
            holder = TcpChannel(server.accept()[0])

        def serve():
            try:
                endpoint.service.serve_query(holder, dealer,
                                             random.Random(6))
            finally:
                holder.close()

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            raw = drive(recorded(distinct_match._querier_steps(
                local, "10.0.0.0/8", backend, dealer),
                dealer.transcript), querier)
        finally:
            querier.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(raw) == len(entries)
        over_tcp = dealer.transcript
        assert (over_tcp.setup_bytes, over_tcp.online_bytes,
                over_tcp.online_rounds) == (stats_out[0].setup_bytes,
                                            stats_out[0].online_bytes,
                                            stats_out[0].online_rounds)

    def test_a_session_takes_at_least_its_flights_in_delays(self):
        delay = 0.01
        rng = random.Random(43)
        entries = [make_entry(random_rule(8, rng), 8, 800 + i)
                   for i in range(4)]
        service = SdxMatchService(sdx_id=8)
        for entry in entries:
            service.register(entry)
        endpoint = LoopbackEndpoint(service, seed=9, one_way_delay=delay)
        for backend, flights in (("gmw", 4), ("yao", 2)):
            stats_out = []
            start = time.monotonic()
            endpoint.query(random_rule(8, rng), "10.0.0.0/8",
                           backend=backend, stats_out=stats_out)
            took = time.monotonic() - start
            assert stats_out[0].flights == flights
            assert took >= flights * delay, backend


# --------------------------------------------------------------------------
# single-frame faults


def changing_frames(monkeypatch, change) -> None:
    """Pass each frame either party of an endpoint's sessions sends through
    ``change(index, kind, payload)``, which returns the (kind, payload)
    that goes out; ``index`` counts a session's frames in the order they
    are sent."""

    def changing(first, second, *args):
        sent = itertools.count()

        def tap(steps):
            reply = None
            while True:
                try:
                    op = steps.send(reply)
                except StopIteration as stop:
                    return stop.value
                if op is not channel.RECV:
                    op = change(next(sent), *op)
                reply = yield op

        return run_pair(tap(first), tap(second), *args)

    monkeypatch.setattr(distinct_match, "run_pair", changing)


# one fault in one frame: (kind, payload) -> (kind, payload)
_RESIZES = {
    "cut": lambda kind, payload: (kind, payload[:-1]),
    "grow": lambda kind, payload: (kind, payload + b"\0"),
    "kind": lambda kind, payload: (kind ^ 0x40, payload),
}


class TestSingleFrameFaults:
    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    def test_a_flipped_backend_index_aborts_naming_both(self, monkeypatch,
                                                         backend):
        # The envelope's fifth byte is the backend's index in BACKENDS.  The
        # holder reads the other backend, and asks the session's dealer for
        # its material, which dealt the querier's first frame for this one.
        entry = make_entry(TernaryRule(4, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def flip(index, kind, payload):
            if kind == MSG_ENVELOPE:
                payload = payload[:4] + bytes([payload[4] ^ 1]) + payload[5:]
            return kind, payload

        changing_frames(monkeypatch, flip)
        other = "yao" if backend == "gmw" else "gmw"
        with pytest.raises(QueryAborted) as caught:
            endpoint.query(TernaryRule.wildcard(4), entry.prefix,
                           backend=backend)
        assert isinstance(caught.value.__cause__, ProtocolError)
        assert str(caught.value) == (f"{other} material asked of a session "
                                     f"dealt for {backend}")

    @pytest.mark.parametrize("backend", ["gmw", "yao"])
    @pytest.mark.parametrize("k", [0, yao.LABEL_KEYED_LANES - 1,
                                   yao.LABEL_KEYED_LANES])
    def test_a_fault_in_one_frame_ends_by_its_cause(self, monkeypatch,
                                                     backend, k):
        # Each frame of a seeded session, changed alone: cut by a byte,
        # grown by one, sent as another kind, or with one bit flipped.  The
        # protocol is semi-honest and carries no integrity check, so a
        # flipped bit may change the answer; what must hold is how the
        # session ends.  A change of size or kind to
        # any frame but the envelope, whose prefix may take any length,
        # aborts the query from a ProtocolError or ChannelClosed, and any
        # other change ends in an answer or such an abort.  At k = 0 the
        # holder leaves the querier's first frame unread, so a change to it
        # leaves the answer as it was.
        rng = random.Random(180 + k)
        width = 8
        service = SdxMatchService(sdx_id=2)
        entries = [make_entry(random_rule(width, rng), 2, 900 + i)
                   for i in range(k)]
        for entry in entries:
            service.register(entry)
        local = random_rule(width, rng)
        if entries:
            local = entries[0].rule

        def query():
            endpoint = LoopbackEndpoint(service, seed=19)
            return endpoint.query(local, "10.0.0.0/8", backend=backend)

        frames, fault = [], {}

        def change(index, kind, payload):
            if not fault:
                frames.append((kind, payload))
            elif index == fault["index"]:
                return fault["how"](kind, payload)
            return kind, payload

        changing_frames(monkeypatch, change)
        clean = query()
        assert clean.hops == {e.next_hop for e in entries
                              if overlaps(local, e.rule)}
        for index, (kind, payload) in enumerate(frames):
            # every bit of the first five bytes, which hold the envelope's
            # header and the whole ack, and four seeded bits beyond
            bits = [*range(8 * min(5, len(payload))),
                    *rng.sample(range(40, 8 * len(payload)),
                                min(4, max(0, 8 * len(payload) - 40)))]
            faults = dict(_RESIZES)
            for bit in bits:
                faults[f"flip-{bit}"] = (
                    lambda kind, payload, bit=bit: (kind, (
                        int.from_bytes(payload, "little") ^ 1 << bit
                    ).to_bytes(len(payload), "little")))
            for name, how in faults.items():
                fault.update(index=index, how=how)
                where = (index, name)
                try:
                    result = query()
                except QueryAborted as exc:
                    assert isinstance(exc.__cause__,
                                      (ProtocolError, ChannelClosed)), where
                    continue
                if k == 0 and index == 1:
                    assert result == clean, where
                else:
                    assert index == 0 or name not in _RESIZES, where


# --------------------------------------------------------------------------
# lane-sliced sessions over one per-entry template


def querier_transcripts(endpoint: LoopbackEndpoint,
                        monkeypatch) -> list:
    """Capture the querier transcript of every session the endpoint runs,
    the one transcript a session records."""
    captured = []
    wrap = distinct_match.recorded

    def spying(steps, transcript):
        assert steps.__name__ == "_querier_steps"
        captured.append(transcript)
        return wrap(steps, transcript)

    monkeypatch.setattr(distinct_match, "recorded", spying)
    return captured


class TestLaneSessions:
    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 64])
    def test_sessions_match_brute_force(self, raw_hops, width, k):
        rng = random.Random(1000 * width + k)
        entries = [make_entry(random_rule(width, rng), 1 + i % 3, 100 + i)
                   for i in range(k)]
        endpoint = fresh_endpoint(entries, seed=k)
        # one query per entry's own rule guarantees overlaps, random ones
        # mostly miss
        queries = [entries[0].rule, random_rule(width, rng),
                   random_rule(width, rng), TernaryRule.wildcard(width)]
        for local in queries:
            for backend in ("gmw", "yao"):
                result = endpoint.query(local, "10.0.0.0/8", backend=backend)
                raw = raw_hops[-1]
                assert result.hops == brute_force_hops(local, entries)
                misses = sum(not overlaps(local, e.rule) for e in entries)
                assert len(raw) == k
                assert raw.count(DUMMY_HOP) == misses
                assert sorted(h for h in raw if h != DUMMY_HOP) == sorted(
                    e.next_hop for e in entries if overlaps(local, e.rule))

    @pytest.mark.parametrize("width", [*range(1, 17), 103, 104, 105])
    def test_every_width_answers_in_its_rounds_and_flights(self, width):
        # Odd widths pair their last cell with a phantom one.  At every
        # width gmw answers as the overlap predicate, at k = 1 and 5, in
        # AND depth + 1 online rounds and 2 ceil(depth / 2) + 2 flights.
        rng = random.Random(300 + width)
        depth = distinct_match.query_template(width).and_depth()
        for k in (1, 5):
            entries = [make_entry(random_rule(width, rng), 3, 300 + i)
                       for i in range(k)]
            endpoint = fresh_endpoint(entries)
            mine = entries[0].rule
            for local in (mine, TernaryRule(width, mine.pattern,
                                            mine.mask & rng.getrandbits(width)),
                          random_rule(width, rng), random_rule(width, rng),
                          TernaryRule.wildcard(width)):
                stats_out = []
                result = endpoint.query(local, "10.0.0.0/8",
                                        stats_out=stats_out)
                assert result.hops == {e.next_hop for e in entries
                                       if overlaps(local, e.rule)}, (k, local)
                s = stats_out[0]
                assert (s.and_depth, s.online_rounds, s.flights) == (
                    depth, depth + 1, 2 * -(-depth // 2) + 2), k

    @pytest.mark.parametrize("backend,width,k,setup,online,rounds", [
        ("gmw", 4, 8, 74, 150, 3),
        ("gmw", 104, 50, 2271, 4458, 5),
        ("yao", 104, 50, 169778, 7497, 2),
    ], ids=["gmw-4-8", "gmw-104-50", "yao-104-50"])  # the shape, not the pins
    def test_querier_transcript_bytes_are_exact(self, monkeypatch, backend,
                                                width, k, setup, online,
                                                rounds):
        # the cleartext envelope carries the prefix: "p" is one byte
        rng = random.Random(width + k)
        entries = [make_entry(random_rule(width, rng), 9, 900 + i, prefix="p")
                   for i in range(k)]
        endpoint = fresh_endpoint(entries)
        transcripts = querier_transcripts(endpoint, monkeypatch)
        stats_out = []
        endpoint.query(random_rule(width, rng), "p", backend=backend,
                       stats_out=stats_out)
        (t_q,) = transcripts
        assert (t_q.setup_bytes, t_q.online_bytes, t_q.online_rounds) == (
            setup, online, rounds)
        assert (stats_out[0].setup_bytes, stats_out[0].online_bytes) == (
            setup, online)

    @pytest.mark.parametrize("width,k", [(4, 8), (104, 50)])
    def test_triples_consumed_are_k_times_the_per_entry_and_count(
            self, monkeypatch, width, k):
        # Every draw all ones but the first, the shifts' low plane, so that
        # every shift reads 2: the material stays consistent, so the
        # session still answers, and the words show their exact widths.
        # The querier's shifts come from the same dealer, dealt over zero
        # lanes before the ack.
        ones = SimpleNamespace(getrandbits=lambda n: (1 << n) - 1)
        draws = iter([0])
        shifted = SimpleNamespace(
            getrandbits=lambda n: next(draws, (1 << n) - 1))
        materials = []

        def recording(circuit, backend, rng, lanes=1, **kwargs):
            pair = dealer_for_circuit(circuit, backend, shifted, lanes,
                                      **kwargs)
            materials.extend(pair)
            return pair

        monkeypatch.setattr(distinct_match, "dealer_for_circuit", recording)
        rng = random.Random(width * k)
        entries = [make_entry(random_rule(width, rng), 5, 500 + i)
                   for i in range(k)]
        endpoint = fresh_endpoint(entries)
        local = entries[0].rule
        hops = {e.next_hop for e in entries if overlaps(local, e.rule)}
        assert endpoint.query(local, "10.0.0.0/8").hops == hops != set()
        template = distinct_match.query_template(width)
        per_entry, products = {4: (3, 3), 104: (69, 255)}[width]
        assert template.and_count() == per_entry
        # the lookup level takes 2 bits of shift per cell, and per pair of
        # cells and entry the querier's pad and the holder's nine and its
        # share; each tree gate of n inputs 2^n − 1 mask products per
        # entry, and the release one transfer of a 6-byte identifier per
        # entry
        early, _, querier, holder = materials
        assert (early.lanes, early.lookup[0]) == (0, querier.lookup[0])
        nb = width // 2 * k
        # p[2, 2] XOR r XOR r, all ones thrice
        assert querier.lookup[:2] == (ones.getrandbits(width) << width, 0)
        assert holder.lookup == (ones.getrandbits(9 * nb),
                                 ones.getrandbits(nb))
        assert querier.tree == tuple(
            ones.getrandbits(((1 << arity) - 1) * gates * k) << gates * k
            for gates, arity in zip(template.levels[1:], template.arities))
        assert sum(((1 << arity) - 1) * gates for gates, arity in zip(
            template.levels[1:], template.arities)) == products
        six_bytes = ones.getrandbits(48 * k)
        assert querier.transfer == (ones.getrandbits(k), six_bytes)
        assert holder.transfer == (six_bytes, six_bytes)

    def test_one_template_per_width_and_no_circuit_grows_with_k(
            self, monkeypatch):
        width = 6
        monkeypatch.setattr(distinct_match, "_templates", {})
        built_shapes = []
        build = distinct_match.build_batch_query

        def recording_build(rule_width):
            built_shapes.append(rule_width)
            return build(rule_width)

        monkeypatch.setattr(distinct_match, "build_batch_query",
                            recording_build)
        created: list[BatchQueryCircuit] = []
        init = BatchQueryCircuit.__init__

        def recording_init(self, rule_width):
            created.append(self)
            init(self, rule_width)

        monkeypatch.setattr(BatchQueryCircuit, "__init__", recording_init)
        rng = random.Random(61)
        service = SdxMatchService(sdx_id=1)
        endpoint = LoopbackEndpoint(service, seed=1)
        for k in range(1, 41):
            service.register(make_entry(random_rule(width, rng), 1, k))
            local = random_rule(width, rng)
            for backend in ("gmw", "yao"):
                stats_out = []
                endpoint.query(local, "10.0.0.0/8", backend=backend,
                               stats_out=stats_out)
                assert stats_out[0].k == k
        template = distinct_match.query_template(width)
        assert list(distinct_match._templates) == [width]
        assert distinct_match._templates[width] is template
        assert built_shapes == [width]
        # both backends run the one template, which is all that was built
        assert created == [template]

    def test_the_largest_legal_frame_fits_the_frame_cap(self, monkeypatch):
        # A full table at the rule width: yao's garbled tables are the
        # largest frame of any session, and the cap is exactly their size.
        rng = random.Random(71)
        entries = [make_entry(random_rule(RULE_WIDTH, rng), 3, i)
                   for i in range(MAX_ENTRIES)]
        endpoint = fresh_endpoint(entries)
        frames = sent_frames(monkeypatch)
        for backend in ("gmw", "yao"):
            result = endpoint.query(entries[0].rule, "10.0.0.0/8",
                                    backend=backend)
            assert entries[0].next_hop in result
        sizes = [size for _, _, size in frames]
        assert max(sizes) == MAX_FRAME_BYTES == 5 + 32 * 104 * 4096

    @pytest.mark.parametrize("width,k,digest", [
        (104, 50, "cbdfa85ceecd54f8d48abd61c7971389"
         "267c3c26ad1ad5e52b0f62335e728da7"),
        (7, 33, "9d856df2c3bdc1da70843b5767d42220"
         "b89f6245a2ff3fd0925ff52f493b5d8c"),
        (1, 3, "eef72ed242f01eb942d786a7018f82d9"
         "6ca7b47cf045b9790ef971f445a68e33"),
    ], ids=["104-50", "7-33", "1-3"])  # the shape, not the pin
    def test_every_frame_is_pinned_by_its_digest(self, monkeypatch, width,
                                                 k, digest):
        # Seeded sessions move the same bytes on every run.  A change that
        # alters any frame's contents updates these digests and says so.
        # The endpoint's streams live across sessions, and a width-mismatched
        # query on each backend aborts between them: the digests pin that an
        # abort leaves the streams where a rerun finds them.  yao garbles
        # 50 and 33 lanes with label-keyed rows and 3 with hashed ones, so
        # both row constructions are pinned.
        assert 3 < yao.LABEL_KEYED_LANES <= 33
        hasher = hashlib.sha256()
        frames = sent_frames(monkeypatch)
        rng = random.Random(1000 * width + k)
        entries = [make_entry(random_rule(width, rng), 4, 400 + i)
                   for i in range(k)]
        service = SdxMatchService(sdx_id=4)
        for entry in entries:
            service.register(entry)
        endpoint = LoopbackEndpoint(service, seed=11)
        queries = [entries[0].rule, TernaryRule.wildcard(width + 1),
                   random_rule(width, rng), TernaryRule.wildcard(width)]
        for local in queries:
            for backend in ("gmw", "yao"):
                if local.width != width:
                    with pytest.raises(QueryAborted, match="does not match"):
                        endpoint.query(local, "10.0.0.0/8", backend=backend)
                    continue
                result = endpoint.query(local, "10.0.0.0/8", backend=backend)
                assert result.hops == {e.next_hop for e in entries
                                       if overlaps(local, e.rule)}
        for kind, payload, _ in frames:
            hasher.update(channel.encode_frame(kind, payload))
        assert hasher.hexdigest() == digest

    def test_session_depth_comes_from_the_template(self):
        # the depth each backend ran: the template's under gmw, and the one
        # level of cross gates yao garbles
        rng = random.Random(67)
        entries = [make_entry(random_rule(104, rng), 2, 20 + i)
                   for i in range(5)]
        endpoint = fresh_endpoint(entries)
        for backend, depth in (("gmw", 4), ("yao", 1)):
            stats_out = []
            endpoint.query(random_rule(104, rng), "10.0.0.0/8",
                           backend=backend, stats_out=stats_out)
            assert stats_out[0].and_depth == depth
            assert stats_out[0].online_rounds == (5 if backend == "gmw"
                                                  else 2)
            assert stats_out[0].flights == (6 if backend == "gmw" else 2)
