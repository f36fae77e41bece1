"""The comparator template: its level plans and its words.

The template is defined by its width alone.  Its word builder is checked
against a per-bit reference built from ``TernaryRule.bit``.  A plaintext
run of its level plan, written here from the plan's definition, is checked
exhaustively against the integer overlap predicate at width 4, at random
at width 104, and, entry by entry with the release's pair of values,
against a filter/map oracle.  The secure backends are checked against the
overlap predicate in ``tests/test_smpc.py``.
"""

from __future__ import annotations

import random

import pytest

from prelude.circuits import build_batch_query
from prelude.rules import TernaryRule, overlaps, random_rule


def rule_inputs(q: TernaryRule, holders) -> tuple[int, int]:
    """Both parties' words: the querier's rule, and holder rule i
    in lane i."""
    c = build_batch_query(q.width)
    return c.word(0, [q]), c.word(1, holders)


def reference_word(party: int, rules, width: int) -> int:
    """The word bit by bit from the rules' masks and patterns, bit j
    counted from the most significant: gate j < w
    reads the querier's pinned-one bit j and the holder's pinned-zero bit
    j, gate w + j the other two, and bit g k + i is gate g of lane i."""
    lanes = len(rules)
    word = 0
    for i, rule in enumerate(rules):
        for j in range(width):
            shift = width - 1 - j
            mask, pattern = rule.mask >> shift & 1, rule.pattern >> shift & 1
            one, zero = mask & pattern, mask & (1 - pattern)
            low, high = (one, zero) if party == 0 else (zero, one)
            word |= low << (j * lanes + i) | high << ((width + j) * lanes + i)
    return word


def run_plan(c, q: int, h: int, lanes: int) -> tuple[int, ...]:
    """The template's output per lane, in the clear, level by level, as
    gmw's plan runs it.

    The querier's symbol of cell j is its bit j plus twice its bit w + j;
    NOT cell j is all ones for 0, NOT the holder's field j for 1 and NOT
    its field w + j for 2.  Lookup gate g ANDs NOT cells g and g +
    ceil(w / 2), a phantom cell past w reading all ones; each tree level
    of n fields has ``n // a`` gates of a = min(4, n) inputs, gate g
    ANDing fields g, g + n // a, ..., and carries the last ``n % a``
    fields; the output is NOT the last field.
    """
    c.check_word(0, q, lanes)
    c.check_word(1, h, lanes)
    w, every_lane = c.width, (1 << lanes) - 1

    def not_cell(j):
        if j >= w:
            return every_lane
        symbol = (q >> j & 1) + 2 * (q >> w + j & 1)
        return (every_lane, every_lane ^ (h >> j * lanes & every_lane),
                every_lane ^ (h >> (w + j) * lanes & every_lane))[symbol]

    fields = [not_cell(g) & not_cell(g + c.pairs) for g in range(c.pairs)]
    assert len(fields) == c.levels[0]
    for gates, arity in zip(c.levels[1:], c.arities, strict=True):
        assert (gates, arity) == (len(fields) // arity, min(4, len(fields)))
        anded = fields[:gates]
        for i in range(1, arity):
            inputs = fields[i * gates : (i + 1) * gates]
            anded = [a & b for a, b in zip(anded, inputs)]
        fields = anded + fields[arity * gates :]
    (last,) = fields
    return tuple(((last ^ every_lane) >> i) & 1 for i in range(lanes))


def distinct(q, holders) -> tuple[int, ...]:
    return tuple(int(not overlaps(q, h)) for h in holders)


# ---------------------------------------------------------------- inputs


class TestGatePrimitives:
    def test_or_truth_table(self):
        # Two cells, set one by one: rules that pin a bit to opposite
        # values make its cell 1, and the output is their OR.
        c = build_batch_query(2)
        q = TernaryRule(2, 0b10, 0b11)
        for c0 in (0, 1):
            for c1 in (0, 1):
                h = TernaryRule(2, 0b10 ^ (c0 << 1) ^ c1, 0b11)
                assert run_plan(c, *rule_inputs(q, [h]), 1) == (c0 | c1,)

    def test_evaluate_input_validation(self):
        for width in (1, 2, 104):
            c = build_batch_query(width)
            # a querier word is one bit per gate at any lane count, a
            # holder word one bit per gate and lane
            n = 2 * width
            for party, size in ((0, n), (1, 3 * n)):
                c.check_word(party, (1 << size) - 1, 3)
                for word in (-1, 1 << size):
                    with pytest.raises(ValueError,
                                       match=f"must fit {size} bits"):
                        c.check_word(party, word, 3)
                # a rule of another width is refused
                with pytest.raises(ValueError, match=f"of width {width}"):
                    c.word(party, [TernaryRule.wildcard(width + 1)])
                with pytest.raises(ValueError, match=f"of width {width}"):
                    c.word(party, [TernaryRule.wildcard(width)] * 2
                           + [TernaryRule.wildcard(width + 1)])

    def test_word_equals_a_per_bit_reference(self):
        rng = random.Random(17)
        for width in (1, 4, 7, 104):
            c = build_batch_query(width)
            for lanes in (1, 3, 64):
                rules = [random_rule(width, rng) for _ in range(lanes - 1)]
                rules.append(TernaryRule.wildcard(width))
                rng.shuffle(rules)
                for party in (0, 1):
                    assert c.word(party, rules) == reference_word(
                        party, rules, width)


class TestClearGroups:
    def test_a_clear_group_belongs_to_party_1_and_to_every_lane(self):
        c = build_batch_query(2)
        # a holder rule per lane; gate j < w reads its pinned-zero bit j,
        # gate w + j its pinned-one bit j: field g of 3 lanes
        holder = [TernaryRule(2, 0b10, 0b10), TernaryRule(2, 0b01, 0b11),
                  TernaryRule(2, 0b10, 0b11)]
        assert c.word(1, holder) == (0b010 | 0b100 << 3 | 0b101 << 6
                                     | 0b010 << 9)
        # the querier's one rule, a bit per gate, which every lane reads
        assert c.word(0, [TernaryRule(2, 0b10, 0b11)]) == 0b1001

    def test_comparator_cells_are_cross_gates(self):
        for width in (1, 7, 8, 104):
            c = build_batch_query(width)
            # yao's one level is the w cells, each garbled as its two
            # cross gates; gmw's first level pairs the cells, a phantom
            # cell padding an odd width, and its OR tree takes the rest,
            # each gate of a inputs taking a - 1 fields away
            assert c.plan("yao") == (width,)
            assert c.plan("gmw") == c.levels
            assert c.levels[0] == c.pairs == (width + 1) // 2
            assert sum(gates * (arity - 1) for gates, arity in zip(
                c.levels[1:], c.arities)) == c.pairs - 1
        with pytest.raises(ValueError, match="unknown backend 'ot'"):
            c.plan("ot")


# ---------------------------------------------------------------- comparator


class TestDistinctPair:
    def test_exhaustive_width_4_equals_overlap_predicate(self, every_rule):
        c = build_batch_query(4)
        rules = every_rule(4)
        for q in rules:
            # every rule at once, one per lane
            assert run_plan(c, *rule_inputs(q, rules), len(rules)) == (
                distinct(q, rules))

    def test_random_width_104(self):
        c = build_batch_query(104)
        rng = random.Random(11)
        for _ in range(50):
            q = random_rule(104, rng)
            h = random_rule(104, rng)
            assert run_plan(c, *rule_inputs(q, [h]), 1) == distinct(q, [h])

    def test_and_count_exact(self):
        # ceil(w / 2) lookup gates, then the tree's gates of up to four
        # inputs
        for width, ands in ((1, 1), (2, 1), (7, 5), (8, 5), (104, 69)):
            c = build_batch_query(width)
            assert c.and_count() == ands, width

    def test_and_depth_logarithmic(self):
        # the lookup level, then the tree of gates of up to four inputs:
        # 52 pairs go to 13, 3 and 1, 7 pairs to 1 carried with 3 and to 1
        for width, depth in ((1, 1), (2, 1), (8, 2), (13, 3), (104, 4)):
            c = build_batch_query(width)
            assert c.and_depth() == depth, width
        assert build_batch_query(104).levels == (52, 13, 3, 1)
        assert build_batch_query(104).arities == (4, 4, 4)


# ---------------------------------------------------------------- batch query


class TestBatchQuery:
    """The per-entry template, run over the entries of a table."""

    def test_matches_filter_map_oracle(self):
        rng = random.Random(42)
        dummy = (1 << 12) - 1
        for width in (4, 8):
            c = build_batch_query(width)
            for _ in range(40):
                q = random_rule(width, rng)
                entries = [random_rule(width, rng) for _ in range(8)]
                ids = [rng.randrange(dummy) for _ in range(8)]
                # the release gives output bit b the b-th of (id, dummy)
                got = tuple((entry_id, dummy)[bit] for entry_id, bit in zip(
                    ids, run_plan(c, *rule_inputs(q, entries), 8)))
                # filter/map: an overlapping entry maps to its identifier,
                # any other to the dummy
                assert got == tuple(v if overlaps(q, e) else dummy
                                    for e, v in zip(entries, ids))

    def test_and_count_exact(self):
        for w, ands in ((4, 3), (8, 5), (104, 69)):
            c = build_batch_query(w)
            assert c.and_count() == ands
            # the lookup level pairs the cells, the OR tree the rest
            assert c.levels[0] == w // 2

    def test_and_depth_independent_of_k(self):
        # one template serves every k: its depth depends on the rule width
        for w, depth in ((1, 1), (4, 2), (8, 2), (104, 4)):
            c = build_batch_query(w)
            assert c.and_depth() == depth
            # the traced run's stage is the template itself
            assert c.distinct_stage() is c

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            build_batch_query(0)
