"""The benchmark's own overlap arithmetic, kept apart from the program.

A ternary rule is a (pattern, mask) pair of integers: mask bit 1 pins that
bit to the pattern's value, mask bit 0 leaves it free.  Two rules overlap,
that is some packet matches both, iff no bit is pinned by both to
different values.  The answer checks use this module instead of
``prelude.rules`` so that a fault there cannot hide a wrong answer.
"""

from __future__ import annotations


def overlaps(p1: int, m1: int, p2: int, m2: int) -> bool:
    """True iff some packet matches both (p1, m1) and (p2, m2)."""
    return (p1 ^ p2) & m1 & m2 == 0


def expected_hops(query: tuple[int, int], table) -> set:
    """Next hops of the table entries whose rule overlaps the query.

    ``table`` holds (pattern, mask, hop) triples; hops are returned as given.
    """
    pq, mq = query
    return {hop for p, m, hop in table if overlaps(pq, mq, p, m)}
