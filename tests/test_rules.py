"""Ternary rule encoding, matching, and overlap checks.

The overlap predicate is validated against brute-force enumeration of every
packet in the (small-width) header space, with bit-level matching reimplemented
here so the two sides share no code path.
"""

from __future__ import annotations

import random

import pytest

from prelude.rules import (
    FlowSpec,
    Packet,
    RULE_WIDTH,
    RuleFormatError,
    TernaryRule,
    decode,
    distinct,
    encode,
    encode_packet,
    format_rule,
    intersect,
    matches,
    overlaps,
    parse_rule,
    random_rule,
)


def brute_force_overlap(r1: TernaryRule, r2: TernaryRule) -> bool:
    # Independent oracle: per-bit matching over every packet of the space.
    def bit_match(rule, packet_bits, i):
        shift = rule.width - 1 - i
        if (rule.mask >> shift) & 1 == 0:
            return True
        return (packet_bits >> shift) & 1 == (rule.pattern >> shift) & 1

    for bits in range(1 << r1.width):
        if all(bit_match(r1, bits, i) for i in range(r1.width)) and all(
            bit_match(r2, bits, i) for i in range(r2.width)
        ):
            return True
    return False


# ---------------------------------------------------------------- encoding


class TestEncoding:
    def test_dst_port_80_field_position(self):
        rule = encode(FlowSpec(dst_port=80))
        assert rule.width == RULE_WIDTH
        # dst_port occupies bits 80..95 of the 104-bit layout.
        assert rule.mask == 0xFFFF << 8
        assert rule.pattern == 80 << 8
        for i in range(RULE_WIDTH):
            shift = RULE_WIDTH - 1 - i
            m, p = rule.mask >> shift & 1, rule.pattern >> shift & 1
            if 80 <= i <= 95:
                assert m == 1
            else:
                assert m == 0 and p == 0

    def test_full_wildcard(self):
        rule = encode(FlowSpec())
        assert rule.mask == 0 and rule.pattern == 0

    def test_round_trip_all_fields(self):
        spec = FlowSpec(
            src_ip=0x0A000001,
            dst_ip=0xC0A80102,
            src_port=1234,
            dst_port=443,
            ip_proto=6,
        )
        assert decode(encode(spec)) == spec

    def test_round_trip_random_specs(self):
        rng = random.Random(7)
        for _ in range(200):
            spec = FlowSpec(
                src_ip=rng.getrandbits(32) if rng.random() < 0.5 else None,
                dst_ip=rng.getrandbits(32) if rng.random() < 0.5 else None,
                src_port=rng.getrandbits(16) if rng.random() < 0.5 else None,
                dst_port=rng.getrandbits(16) if rng.random() < 0.5 else None,
                ip_proto=rng.choice([None, 6, 17]),
            )
            assert decode(encode(spec)) == spec

    def test_decode_rejects_partial_field_mask(self):
        rule = TernaryRule(RULE_WIDTH, 0, 1 << 9)  # one bit inside dst_port
        with pytest.raises(RuleFormatError):
            decode(rule)

    def test_ports_require_tcp_or_udp(self):
        with pytest.raises(RuleFormatError):
            FlowSpec(ip_proto=1, dst_port=80)
        # wildcard proto with ports is fine
        FlowSpec(dst_port=80)
        FlowSpec(ip_proto=17, src_port=53)

    def test_canonical_pattern_zeroed_under_wildcard(self):
        rule = TernaryRule(8, 0b11111111, 0b00001111)
        assert rule.pattern == 0b00001111

    def test_packet_encoding_positions(self):
        pkt = encode_packet(0, 0, 0, 80, 6)
        assert pkt.bits == (80 << 8) | 6


# ---------------------------------------------------------------- matching


class TestMatching:
    def test_wildcard_matches_everything(self):
        rule = TernaryRule.wildcard(8)
        for bits in range(256):
            assert matches(rule, Packet(8, bits))

    def test_exact_rule_matches_one_packet(self):
        rule = TernaryRule(8, 0x5A, 0xFF)
        hits = [bits for bits in range(256) if matches(rule, Packet(8, bits))]
        assert hits == [0x5A]

    def test_match_set_size_is_two_to_free_bits(self):
        rng = random.Random(21)
        for _ in range(50):
            rule = random_rule(8, rng)
            hits = sum(matches(rule, Packet(8, b)) for b in range(256))
            assert hits == 1 << (8 - bin(rule.mask).count("1"))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matches(TernaryRule.wildcard(8), Packet(9, 0))


# ---------------------------------------------------------------- overlap


class TestOverlap:
    def test_against_brute_force_random_pairs(self):
        rng = random.Random(99)
        for _ in range(100):
            r1 = random_rule(8, rng)
            r2 = random_rule(8, rng)
            assert overlaps(r1, r2) == brute_force_overlap(r1, r2)
            assert distinct(r1, r2) == (not brute_force_overlap(r1, r2))

    def test_exhaustive_width_3(self, every_rule):
        all_rules = every_rule(3)
        assert len(all_rules) == 27
        for r1 in all_rules:
            for r2 in all_rules:
                assert overlaps(r1, r2) == brute_force_overlap(r1, r2)

    def test_symmetry_and_reflexivity(self):
        rng = random.Random(5)
        for _ in range(200):
            r1 = random_rule(16, rng)
            r2 = random_rule(16, rng)
            assert overlaps(r1, r2) == overlaps(r2, r1)
            assert overlaps(r1, r1)

    def test_wildcard_overlaps_everything(self):
        rng = random.Random(6)
        wc = TernaryRule.wildcard(16)
        for _ in range(50):
            assert overlaps(wc, random_rule(16, rng))

    def test_canonicalization_never_changes_results(self):
        rng = random.Random(17)
        for _ in range(200):
            mask = rng.getrandbits(8)
            raw_pattern = rng.getrandbits(8)
            canon = TernaryRule(8, raw_pattern & mask, mask)
            other = random_rule(8, rng)
            made = TernaryRule(8, raw_pattern, mask)  # canonicalized on build
            assert made == canon
            assert overlaps(made, other) == overlaps(canon, other)
            for bits in (0, 0xFF, rng.getrandbits(8)):
                assert matches(made, Packet(8, bits)) == matches(canon, Packet(8, bits))

    def test_intersection_matches_conjunction(self):
        rng = random.Random(31)
        for _ in range(100):
            r1 = random_rule(8, rng)
            r2 = random_rule(8, rng)
            both = intersect(r1, r2)
            for bits in range(256):
                pkt = Packet(8, bits)
                conj = matches(r1, pkt) and matches(r2, pkt)
                assert conj == (both is not None and matches(both, pkt))

    def test_http_rules_from_paper_example_overlap(self):
        # Two deflections pinning TCP port 80 conflict; ssh vs http do not.
        http1 = encode(parse_rule("proto=tcp,dst_port=80"))
        http2 = encode(parse_rule("proto=tcp,dst_port=80,src_ip=10.0.0.1"))
        ssh = encode(parse_rule("proto=tcp,dst_port=22"))
        assert overlaps(http1, http2)
        assert distinct(http1, ssh)


# ---------------------------------------------------------------- literals


class TestRuleLiterals:
    def test_parse_basic(self):
        spec = parse_rule("proto=tcp,dst_port=80")
        assert spec.ip_proto == 6
        assert spec.dst_port == 80
        assert spec.src_ip is None

    def test_parse_ips_and_numbers(self):
        spec = parse_rule("src_ip=192.168.1.2,dst_ip=0x0a000001,proto=17")
        assert spec.src_ip == 0xC0A80102
        assert spec.dst_ip == 0x0A000001
        assert spec.ip_proto == 17

    def test_parse_wildcards(self):
        assert parse_rule("*") == FlowSpec()
        assert parse_rule("proto=*,dst_port=443") == FlowSpec(dst_port=443)

    def test_format_round_trip(self):
        for text in ("proto=tcp,dst_port=80", "*", "src_ip=10.0.0.1,proto=udp"):
            assert parse_rule(format_rule(parse_rule(text))) == parse_rule(text)

    def test_parse_errors(self):
        for bad in ("port=80", "dst_port", "dst_port=80,dst_port=81", "proto=zzz"):
            with pytest.raises(RuleFormatError):
                parse_rule(bad)
