"""The benchmark's overlap arithmetic against brute force.

At width 4 there are 81 ternary rules and 16 packets; two rules overlap iff
some packet matches both.  Needs no program code:

    python3 -m pytest perfbench/test_overlap.py
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gen import holder_table, query_rule  # noqa: E402
from overlap import expected_hops, overlaps  # noqa: E402

WIDTH = 4


def all_rules(width: int):
    """Every canonical (pattern, mask): each bit is 0, 1 or free."""
    for digits in itertools.product("01*", repeat=width):
        mask = int("".join("0" if d == "*" else "1" for d in digits), 2)
        pattern = int("".join("1" if d == "1" else "0" for d in digits), 2)
        yield pattern, mask


def matches(pattern: int, mask: int, packet: int) -> bool:
    return all((packet >> i) & 1 == (pattern >> i) & 1
               for i in range(WIDTH) if (mask >> i) & 1)


def test_there_are_81_rules():
    assert len(set(all_rules(WIDTH))) == 3 ** WIDTH


def test_overlap_matches_packet_enumeration():
    rules = list(all_rules(WIDTH))
    packets = range(1 << WIDTH)
    for (p1, m1), (p2, m2) in itertools.product(rules, repeat=2):
        brute = any(matches(p1, m1, x) and matches(p2, m2, x) for x in packets)
        assert overlaps(p1, m1, p2, m2) == brute, (p1, m1, p2, m2)


def test_expected_hops_keeps_only_overlapping_entries():
    table = [(0b1000, 0b1000, "a"), (0b0000, 0b1000, "b"), (0, 0, "c")]
    assert expected_hops((0b1010, 0b1010), table) == {"a", "c"}


def test_generated_queries_overlap_the_entries_they_were_built_from():
    table = holder_table(seed=7, k=50)
    sizes = set()
    for index in range(60):
        query = query_rule(seed=7, k=50, index=index, table=table)
        hits = [e for e in table if overlaps(*query, e[0], e[1])]
        sizes.add(min(len(hits), 2))
    assert sizes == {0, 1, 2}  # some queries hit nothing, others several
