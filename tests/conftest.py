"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from prelude import distinct_match
from prelude.distinct_match import NextHopId
from prelude.rules import TernaryRule


@pytest.fixture
def raw_hops(monkeypatch) -> list[list[NextHopId]]:
    """The raw identifier vector each query session hands its querier, one
    list per session in order: a slot per holder entry, shuffled, the
    dummy where an entry does not overlap."""
    sessions: list[list[NextHopId]] = []
    querier_steps = distinct_match._querier_steps

    def capturing(*args):
        raw, tag = yield from querier_steps(*args)
        sessions.append([NextHopId.from_bytes(value) for value in raw])
        return raw, tag

    monkeypatch.setattr(distinct_match, "_querier_steps", capturing)
    return sessions


@pytest.fixture
def every_rule():
    """A function of a width: all 3**width canonical ternary rules of that
    width, a pattern bit set only where its mask bit is."""
    def rules(width: int) -> list[TernaryRule]:
        return [TernaryRule(width, pattern, mask)
                for mask in range(1 << width) for pattern in range(1 << width)
                if pattern & ~mask == 0]
    return rules
