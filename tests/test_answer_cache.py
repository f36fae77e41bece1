"""Re-walks over two-party sessions reuse the answers of unchanged tables.

The benchmark's churn scenario (``perfbench/gen.py``, loaded from its file
as ``test_answers_pinned`` loads it) runs its warm phase and stream over
the ``smpc`` transport, plane seed 1, with every exchange's endpoint
watched from outside.  A session is reused when the holder's table tag
still matches the answer the asking rule holds, so the session ends after
its ack.  The stream's 2067 remote sessions include 1019 such repeats, all
from removals and BGP updates, and the verdicts are those pinned over
plaintext queries.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from prelude.control import ControlPlane, table_answer
from test_answers_pinned import (
    CHURN_ACTIVE,
    CHURN_VERDICTS,
    churn_scenario,
    sha256,
)


def watch(plane: ControlPlane, sessions: list, event: list) -> None:
    """Record (the kind of event ``event[0]`` names, reused, k, AND depth,
    answer, the plaintext answer of the holder's table then) for every
    session of every endpoint of ``plane``."""
    for node in plane.nodes.values():
        def watched(local, prefix, backend="gmw", stats_out=None, *,
                    cached=None, query=node.endpoint.query,
                    service=node.service):
            expected = {hop for hop, _ in table_answer(
                service.entries_for(prefix), local, False)}
            stats = []
            result = query(local, prefix, backend, stats, cached=cached)
            s = stats[0]
            sessions.append((event[0], s.reused, s.k, s.and_depth,
                             result.hops, expected))
            return result

        node.endpoint.query = watched


@pytest.fixture(scope="module")
def churn():
    """The plane after the seed-1 churn over smpc, its verdicts, the ids
    of its active rules, and the sessions of its stream."""
    scenario = churn_scenario()
    plane = ControlPlane(scenario.graph, scenario.sites, scenario.ribs,
                         transport="smpc", seed=1)
    sessions: list = []
    event = ["warm"]
    watch(plane, sessions, event)
    verdicts: list = []
    installs: list = []  # (owner, rule id) by install index
    alt = {prefix: 0 for prefix in scenario.ribs}

    def install(policy) -> None:
        verdict = plane.install(policy)
        verdicts.append([verdict.decision, verdict.reason, verdict.closed_at])
        installs.append((policy.owner, verdict.rule_id))

    for policy in scenario.warm:
        install(policy)
    del sessions[:]
    for kind, arg in scenario.events:
        event[0] = kind
        if kind == "install":
            install(arg)
        elif kind == "remove":
            verdicts.append(["removed", plane.remove(*installs[arg])])
        else:
            alt[arg] = (alt[arg] + 1) % (len(scenario.alt_ribs[arg]) + 1)
            rib = (scenario.ribs[arg] if alt[arg] == 0
                   else scenario.alt_ribs[arg][alt[arg] - 1])
            for verdict in plane.bgp_update(arg, rib):
                verdicts.append([verdict.decision, verdict.reason,
                                 verdict.closed_at])
    active = sorted(rule_id for node in plane.nodes.values()
                    for rule_id, record in node.registry.items()
                    if record.active)
    return plane, verdicts, active, sessions


def test_the_verdicts_over_smpc_are_the_pinned_ones(churn):
    _, verdicts, active, _ = churn
    assert sha256(json.dumps(verdicts).encode()) == CHURN_VERDICTS
    assert sha256(json.dumps(active).encode()) == CHURN_ACTIVE


def test_repeat_sessions_reuse_their_answers(churn):
    _, _, _, sessions = churn
    assert len(sessions) == 2067
    # a fresh install asks nothing it asked before
    assert Counter(kind for kind, reused, *_ in sessions if reused) == {
        "remove": 987, "bgp_update": 32}
    for kind, reused, k, depth, hops, expected in sessions:
        assert hops == expected
        if reused:
            assert (k, depth) == (0, 0)


def test_a_rule_holds_at_most_one_answer_per_other_exchange(churn):
    plane, _, _, _ = churn
    held = 0
    for sdx_id, node in plane.nodes.items():
        for record in node.registry.values():
            assert sdx_id not in record.answers
            assert set(record.answers) <= set(plane.nodes)
            assert len(record.answers) <= len(plane.nodes) - 1
            held += len(record.answers)
    assert held
