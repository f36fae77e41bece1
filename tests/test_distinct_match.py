"""End-to-end tests of the private rule-matching primitive."""

from __future__ import annotations

import random
import re
import threading

import pytest
from scipy import stats

from prelude import distinct_match
from prelude.distinct_match import (
    DUMMY_HOP,
    HOP_ID_BITS,
    LoopbackEndpoint,
    NextHopId,
    QueryAborted,
    QueryResult,
    RuleEntry,
    SdxMatchService,
)
from prelude.circuits import (
    Circuit,
    batch_query_and_count,
    expected_and_depth,
)
from prelude.rules import (
    FlowSpec,
    Packet,
    PROTO_TCP,
    TernaryRule,
    encode,
    matches,
    overlaps,
    random_rule,
)
from prelude.smpc import (
    InlineLoopback,
    MSG_ENVELOPE,
    MSG_ENVELOPE_ACK,
    MSG_GARBLED_TABLES,
    MSG_LABELS,
    MSG_OUTPUT_SHARE,
    ProtocolError,
    SENT,
    dealer_for_circuit,
    recv_frame,
    send_frame,
)


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
            assert 0 <= hop.value < 1 << HOP_ID_BITS
            assert NextHopId.from_value(hop.value) == hop
            assert NextHopId.from_bytes(hop.to_bytes()) == hop

    def test_dummy_is_all_ones(self):
        # No circuit needs an all-ones dummy any more, since the release
        # hands over the dummy as a value, but the all-ones identifier stays
        # reserved for it.
        assert DUMMY_HOP.value == (1 << HOP_ID_BITS) - 1

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
        assert stats_out[0].online_rounds == 0
        assert stats_out[0].online_bytes == 0
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
    def test_raw_vector_has_one_dummy_per_nonoverlap(self):
        rng = random.Random(17)
        local = TernaryRule(8, 0b11110000, 0b11110000)
        overlapping = make_entry(TernaryRule(8, 0b11110000, 0b11111111), 1, 10)
        disjoint_a = make_entry(TernaryRule(8, 0b00001111, 0b11111111), 2, 20)
        disjoint_b = make_entry(TernaryRule(8, 0b00000000, 0b11110000), 3, 30)
        endpoint = fresh_endpoint([overlapping, disjoint_a, disjoint_b])
        raw = []
        result = endpoint.query(local, "10.0.0.0/8", _raw_out=raw)
        assert raw.count(DUMMY_HOP) == 2
        assert set(raw) - {DUMMY_HOP} == {overlapping.next_hop}
        assert DUMMY_HOP not in result

    def test_shuffle_spreads_positions_uniformly(self):
        local = TernaryRule(8, 0, 0b11000000)
        hit = make_entry(TernaryRule(8, 0, 0), 7, 70)
        chaff = [
            make_entry(TernaryRule(8, 0b11000000, 0b11000000), i + 1, i + 1)
            for i in range(3)
        ]
        endpoint = fresh_endpoint([hit] + chaff, seed=23)
        counts = [0, 0, 0, 0]
        for _ in range(400):
            raw = []
            endpoint.query(local, "10.0.0.0/8", _raw_out=raw)
            counts[raw.index(hit.next_hop)] += 1
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

    def test_aborted_session_raises_query_aborted(self):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def broken(channel, *args, **kwargs):
            channel.close()

        endpoint.service.serve_query = broken
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

    @pytest.mark.parametrize("payload,cause", [
        (b"not json", "not JSON"),
        (b'{"rule_width": 8, "backend": "gmw"}', "no 'prefix' field"),
        (b"[1, 2]", "JSON list, not an object"),
        (b'{"prefix": "10.0.0.0/8", "rule_width": "x", "backend": "gmw"}',
         "rule_width 'x' is not a positive integer"),
        (b'{"prefix": "10.0.0.0/8", "rule_width": -3, "backend": "gmw"}',
         "rule_width -3 is not a positive integer"),
    ])
    def test_malformed_envelope_aborts_naming_its_cause(self, monkeypatch,
                                                        payload, cause):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def sends_payload(local, prefix, backend, dealer, nonce, transcript):
            yield from send_frame(MSG_ENVELOPE, payload, transcript)
            yield from recv_frame(MSG_ENVELOPE_ACK, transcript)
            return []

        monkeypatch.setattr(distinct_match, "_querier_steps", sends_payload)
        with pytest.raises(QueryAborted) as caught:
            endpoint.query(TernaryRule.wildcard(8), entry.prefix)
        assert cause in str(caught.value)
        assert isinstance(caught.value.__cause__, ProtocolError)

    @pytest.mark.parametrize("ack,cause", [
        (b"not json", "envelope ack is not JSON"),
        (b"[1]", "envelope ack is a JSON list, not an object"),
        (b'{"id_width": 48}', "envelope ack has no 'k' field"),
        (b'{"k": 2}', "envelope ack has no 'id_width' field"),
        (b'{"k": "x", "id_width": 48}',
         "envelope ack k 'x' is not a non-negative integer"),
        (b'{"k": -3, "id_width": 48}',
         "envelope ack k -3 is not a non-negative integer"),
        (b'{"k": true, "id_width": 48}',
         "envelope ack k True is not a non-negative integer"),
        (b'{"k": 4097, "id_width": 48}',
         "envelope ack k 4097 exceeds the cap of 4096 entries"),
        (b'{"k": 2, "id_width": 32}', "incompatible identifier width 32"),
    ])
    def test_malformed_ack_fails_naming_its_cause(self, ack, cause):
        ch = InlineLoopback(distinct_match._querier_steps(
            TernaryRule.wildcard(8), "10.0.0.0/8", "gmw", None, "0", None))
        assert ch.recv()[0] == MSG_ENVELOPE
        ch.send(MSG_ENVELOPE_ACK, ack)
        with pytest.raises(ProtocolError, match=re.escape(cause)):
            ch.finish()

    def test_any_holder_failure_becomes_query_aborted(self):
        entry = make_entry(TernaryRule(8, 0, 0), 1, 65001)
        endpoint = fresh_endpoint([entry])

        def failing(channel, *args, **kwargs):
            raise ValueError("holder table is corrupt")

        endpoint.service.serve_query = failing
        with pytest.raises(QueryAborted, match="holder table is corrupt"):
            endpoint.query(TernaryRule.wildcard(8), entry.prefix)

    def test_concurrent_queries_are_isolated(self):
        rng = random.Random(31)
        entries = [make_entry(random_rule(8, rng), 5, 50 + i) for i in range(4)]
        endpoint = fresh_endpoint(entries)
        locals_ = [random_rule(8, rng) for _ in range(8)]
        expected = [brute_force_hops(rule, entries) for rule in locals_]
        results: list = [None] * len(locals_)

        def worker(i):
            results[i] = endpoint.query(locals_[i], "10.0.0.0/8")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(locals_))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, expected):
            assert got.hops == want


# --------------------------------------------------------------------------
# session mechanics


def holder_transcripts(endpoint: LoopbackEndpoint) -> list:
    """Capture the holder transcript of every session the endpoint runs."""
    captured = []
    serve = endpoint.service.serve_query

    def spying(channel, dealer, shuffle_rng, garble_rng, transcript=None):
        captured.append(transcript)
        return serve(channel, dealer, shuffle_rng, garble_rng, transcript)

    endpoint.service.serve_query = spying
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
    def test_yao_counters_are_exact(self, width, k):
        rng = random.Random(41 + width)
        entries = [make_entry(random_rule(width, rng), 9, 900 + i)
                   for i in range(k)]
        endpoint = fresh_endpoint(entries)
        transcripts = holder_transcripts(endpoint)
        # random width-104 rules almost never overlap; query the entry's own
        # rule there so an identifier, not only the dummy, is released
        local = random_rule(width, rng) if width == 4 else entries[0].rule
        raw = []
        stats_out = []
        endpoint.query(local, "10.0.0.0/8", backend="yao", _raw_out=raw,
                       stats_out=stats_out)
        sent = {e.kind: e.n_bytes for e in transcripts[0].entries
                if e.direction == SENT}
        # comparator cells and OR tree only: 2w one-row cross gates of 16
        # bytes and w - 1 half-gates ANDs of 32 bytes
        assert sent[MSG_GARBLED_TABLES] == 5 + k * (64 * width - 32)
        # two labels per querier input bit and none for the holder's clear
        # rule bits
        assert sent[MSG_LABELS] == 5 + 16 * 4 * width
        # an identifier and the dummy, 6 bytes each, per entry
        assert sent[MSG_OUTPUT_SHARE] == 5 + 12 * k
        assert stats_out[0].online_rounds == 2
        assert stats_out[0].and_depth == expected_and_depth(width)
        assert sorted(raw) == sorted(
            e.next_hop if overlaps(local, e.rule) else DUMMY_HOP
            for e in entries)


# --------------------------------------------------------------------------
# lane-sliced sessions over one per-entry template


def querier_transcripts(endpoint: LoopbackEndpoint,
                        monkeypatch) -> list:
    """Capture the querier transcript of every session the endpoint runs."""
    captured = []
    steps = distinct_match._querier_steps

    def spying(local, prefix, backend, dealer, nonce, transcript):
        captured.append(transcript)
        return steps(local, prefix, backend, dealer, nonce, transcript)

    monkeypatch.setattr(distinct_match, "_querier_steps", spying)
    return captured


class TestLaneSessions:
    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 64])
    def test_sessions_match_brute_force(self, width, k):
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
                raw = []
                result = endpoint.query(local, "10.0.0.0/8", backend=backend,
                                        _raw_out=raw)
                assert result.hops == brute_force_hops(local, entries)
                misses = sum(not overlaps(local, e.rule) for e in entries)
                assert len(raw) == k
                assert raw.count(DUMMY_HOP) == misses
                assert sorted(h for h in raw if h != DUMMY_HOP) == sorted(
                    e.next_hop for e in entries if overlaps(local, e.rule))

    @pytest.mark.parametrize("backend,width,k,setup,online,rounds", [
        ("gmw", 4, 8, 299, 158, 4),
        ("gmw", 104, 50, 5487, 4601, 9),
        ("yao", 104, 50, 334707, 7297, 2),
    ])
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
        materials = []

        def recording(circuit, backend, rng, lanes=1):
            pair = dealer_for_circuit(circuit, backend, rng, lanes)
            materials.extend(pair)
            return pair

        monkeypatch.setattr(distinct_match, "dealer_for_circuit", recording)
        rng = random.Random(width * k)
        entries = [make_entry(random_rule(width, rng), 5, 500 + i)
                   for i in range(k)]
        endpoint = fresh_endpoint(entries)
        endpoint.query(random_rule(width, rng), "10.0.0.0/8")
        per_entry = batch_query_and_count(width)
        assert per_entry == 3 * width - 1
        # the comparator's 2w cross gates take cross products, only the OR
        # tree takes triples, and the release one transfer per entry
        for material in materials:
            assert material.triples.n == material.triples.pos == k * (width - 1)
            assert material.cross.n == material.cross.pos == k * 2 * width
            assert material.transfers == k

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
        created: list[Circuit] = []
        init = Circuit.__init__

        def recording_init(self):
            created.append(self)
            init(self)

        monkeypatch.setattr(Circuit, "__init__", recording_init)
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

    def test_session_depth_comes_from_the_template(self):
        rng = random.Random(67)
        entries = [make_entry(random_rule(104, rng), 2, 20 + i)
                   for i in range(5)]
        endpoint = fresh_endpoint(entries)
        for backend in ("gmw", "yao"):
            stats_out = []
            endpoint.query(random_rule(104, rng), "10.0.0.0/8",
                           backend=backend, stats_out=stats_out)
            assert stats_out[0].and_depth == expected_and_depth(104) == 8
