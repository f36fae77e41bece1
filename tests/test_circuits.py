"""Circuit construction and plaintext evaluation.

The comparator circuit is checked exhaustively against the integer overlap
predicate at small widths, and the per-entry query template, entry by
entry, against a filter/map oracle.
"""

from __future__ import annotations

import math
import random

import pytest

from prelude.circuits import (
    Circuit,
    batch_query_and_count,
    build_batch_query,
    build_distinct_pair,
    distinct_pair_and_count,
    evaluate_plaintext,
    expected_and_depth,
)
from prelude.rules import TernaryRule, enumerate_rules, overlaps, random_rule


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def rule_input_bits(rule: TernaryRule) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pinned-one and pinned-zero bits in wire order (bit 0 first)."""
    return (int_to_bits(rule.mask & rule.pattern, rule.width),
            int_to_bits(rule.mask & ~rule.pattern, rule.width))


def pair_inputs(q: TernaryRule, h: TernaryRule) -> dict:
    q_one, q_zero = rule_input_bits(q)
    h_one, h_zero = rule_input_bits(h)
    return {"q_one": q_one, "q_zero": q_zero, "h_one": h_one, "h_zero": h_zero}


def entry_inputs(q: TernaryRule, rule: TernaryRule, entry_id: int,
                 id_width: int) -> dict:
    """Template inputs for one entry: both rules, and the bits the entry's
    identifier leaves 0 against the all-ones dummy."""
    dummy = (1 << id_width) - 1
    return {**pair_inputs(q, rule),
            "h_id_zeros": int_to_bits(dummy ^ entry_id, id_width)}


# ---------------------------------------------------------------- primitives


class TestGatePrimitives:
    def test_or_truth_table(self):
        c = Circuit()
        (a,) = c.add_input_group(0, "a", 1)
        (b,) = c.add_input_group(0, "b", 1)
        c.mark_output(c.or_(a, b))
        for x in (0, 1):
            for y in (0, 1):
                assert evaluate_plaintext(c, {"a": [x], "b": [y]}) == (x | y,)

    def test_not_and_xor(self):
        c = Circuit()
        (a,) = c.add_input_group(0, "a", 1)
        (b,) = c.add_input_group(0, "b", 1)
        c.mark_output(c.not_(a))
        c.mark_output(c.xor(a, b))
        c.mark_output(c.and_(a, b))
        assert evaluate_plaintext(c, {"a": [1], "b": [1]}) == (0, 0, 1)
        assert evaluate_plaintext(c, {"a": [0], "b": [1]}) == (1, 1, 0)

    def test_inputs_must_precede_gates(self):
        c = Circuit()
        (a,) = c.add_input_group(0, "a", 1)
        c.not_(a)
        with pytest.raises(ValueError):
            c.add_input_group(1, "late", 1)

    def test_gate_inputs_must_exist(self):
        c = Circuit()
        c.add_input_group(0, "a", 1)
        with pytest.raises(ValueError):
            c.and_(0, 5)

    def test_evaluate_input_validation(self):
        c = build_distinct_pair(2)
        good = pair_inputs(TernaryRule.wildcard(2), TernaryRule.wildcard(2))
        with pytest.raises(ValueError):
            evaluate_plaintext(c, {**good, "bogus": [0]})
        with pytest.raises(ValueError):
            evaluate_plaintext(c, {k: v for k, v in good.items() if k != "q_one"})
        with pytest.raises(ValueError):
            evaluate_plaintext(c, {**good, "q_one": [0]})

    def test_dump_golden_width_1(self):
        c = build_distinct_pair(1)
        # q_one w0, q_zero w1, h_one w2, h_zero w3: q_one h_zero ^ q_zero h_one
        assert c.dump() == "AND w4 <- w0 w3\nAND w5 <- w1 w2\nXOR w6 <- w4 w5"
        assert c.output_wires == [6]


class TestClearGroups:
    @staticmethod
    def circuit() -> tuple[Circuit, int, int]:
        c = Circuit()
        (a,) = c.add_input_group(0, "a", 1)
        (b,) = c.add_input_group(1, "b", 1)
        return c, a, b

    def test_clear_wire_feeds_only_and_gates(self):
        c, a, b = self.circuit()
        with pytest.raises(ValueError, match="only AND"):
            c.xor(a, b)
        with pytest.raises(ValueError, match="only AND"):
            c.xor(b, a)
        with pytest.raises(ValueError, match="only AND"):
            c.not_(b)
        with pytest.raises(ValueError):
            c.mark_output(b)
        assert c.gates == []

    def test_cross_gate_keeps_its_clear_wire_second(self):
        c, a, b = self.circuit()
        out = c.and_(b, a)
        assert c.gates == [(0, a, b, out)]
        assert c.cross_count() == c.and_count() == 1
        (_, crosses, _) = c.and_layers()
        assert crosses[1] == [(0, a, b, out)]
        c.mark_output(out)
        for x in (0, 1):
            for y in (0, 1):
                assert evaluate_plaintext(c, {"a": [x], "b": [y]}) == (x & y,)

    def test_and_of_two_clear_wires_is_rejected(self):
        c = Circuit()
        b1, b2 = c.add_input_group(1, "b", 2)
        with pytest.raises(ValueError, match="at most one clear"):
            c.and_(b1, b2)

    def test_a_clear_group_belongs_to_party_1_and_to_every_lane(self):
        c = Circuit()
        a = c.add_input_group(0, "a", 2)
        b = c.add_input_group(1, "b", 2)
        assert c.clear_wires == set(b)
        assert not c.clear_wires & set(a)

    def test_comparator_cells_are_cross_gates(self):
        for width in (1, 8, 104):
            c = build_distinct_pair(width)
            assert c.cross_count() == 2 * width
            assert {g.name for g in c.input_groups if g.party == 1} == {
                "h_one", "h_zero"}
            _, crosses, _ = c.and_layers()
            assert len(crosses[1]) == 2 * width
            assert not any(crosses[2:])


# ---------------------------------------------------------------- comparator


class TestDistinctPair:
    def test_exhaustive_width_4_equals_overlap_predicate(self):
        c = build_distinct_pair(4)
        rules = list(enumerate_rules(4))
        for q in rules:
            for h in rules:
                out = evaluate_plaintext(c, pair_inputs(q, h))
                assert out[0] == (0 if overlaps(q, h) else 1)

    def test_random_width_104(self):
        c = build_distinct_pair(104)
        rng = random.Random(11)
        for _ in range(50):
            q = random_rule(104, rng)
            h = random_rule(104, rng)
            out = evaluate_plaintext(c, pair_inputs(q, h))
            assert out[0] == (0 if overlaps(q, h) else 1)

    def test_and_count_exact(self):
        for width in (1, 2, 7, 8, 104):
            c = build_distinct_pair(width)
            assert c.and_count() == distinct_pair_and_count(width)
            assert c.and_count() == 2 * width + (width - 1)
            assert c.cross_count() == 2 * width

    def test_and_depth_logarithmic(self):
        for width in (1, 2, 8, 13, 104):
            c = build_distinct_pair(width)
            expect = 1 + (math.ceil(math.log2(width)) if width > 1 else 0)
            assert c.and_depth() == expect == expected_and_depth(width)


# ---------------------------------------------------------------- batch query


class TestBatchQuery:
    """The per-entry template, evaluated once per entry of a table."""

    @staticmethod
    def run_entries(c, q, entries, ids, id_width):
        """The template's output for each entry, decoded to an integer."""
        out = []
        for rule, entry_id in zip(entries, ids):
            value = 0
            for b in evaluate_plaintext(
                    c, entry_inputs(q, rule, entry_id, id_width)):
                value = (value << 1) | b
            out.append(value)
        return tuple(out)

    def test_matches_filter_map_oracle(self):
        rng = random.Random(42)
        id_width = 12
        dummy = (1 << id_width) - 1
        for width in (4, 8):
            c = build_batch_query(width, id_width)
            for _ in range(40):
                q = random_rule(width, rng)
                entries = [random_rule(width, rng) for _ in range(8)]
                ids = [rng.randrange(dummy) for _ in range(8)]
                got = self.run_entries(c, q, entries, ids, id_width)
                # filter/map: an overlapping entry maps to its identifier,
                # any other to the all-ones dummy
                assert got == tuple(v if overlaps(q, e) else dummy
                                    for e, v in zip(entries, ids))

    def test_mapper_selects_dummy_on_distinct(self):
        c = build_batch_query(4, 4)
        q = TernaryRule(4, 0b1000, 0b1000)  # first bit pinned to 1
        hit = TernaryRule.wildcard(4)
        miss = TernaryRule(4, 0b0000, 0b1000)  # first bit pinned to 0
        got = self.run_entries(c, q, [miss, hit], [5, 2], 4)
        assert got == (0b1111, 2)

    def test_output_order_follows_holder_entry_order(self):
        c = build_batch_query(4, 8)
        q = TernaryRule.wildcard(4)
        entries = [TernaryRule.wildcard(4)] * 3
        got = self.run_entries(c, q, entries, [10, 20, 30], 8)
        assert got == (10, 20, 30)

    def test_and_count_exact(self):
        for w, idw in ((4, 8), (8, 48), (104, 48)):
            c = build_batch_query(w, idw)
            assert c.and_count() == batch_query_and_count(w, idw)
            assert c.and_count() == 2 * w + (w - 1) + idw
            # the comparator cells and the identifier stage are cross gates
            assert c.cross_count() == 2 * w + idw

    def test_and_depth_independent_of_k(self):
        # one template serves every k: its depth depends on the rule width
        for w in (4, 8, 104):
            for idw in (1, 16, 48):
                c = build_batch_query(w, idw)
                assert c.and_depth() == expected_and_depth(w, with_mapper=True)
                assert c.distinct_stage().and_depth() == expected_and_depth(w)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            build_batch_query(0, 8)
        with pytest.raises(ValueError):
            build_batch_query(8, 0)
