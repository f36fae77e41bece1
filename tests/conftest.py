"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from prelude import distinct_match
from prelude.distinct_match import NextHopId


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
