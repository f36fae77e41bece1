"""Re-walks over two-party sessions reuse the answers of unchanged tables.

The benchmark's churn scenario (``perfbench/gen.py``) runs its warm phase
and stream over the ``smpc`` transport, plane seed 1, replayed by the
benchmark's own ``ChurnRunner`` (``perfbench/workload.py``, loaded from
its file by ``test_answers_pinned``), with every exchange's endpoint
watched by its ``QueryRecorder``.  A session is reused when the holder's
table tag still matches the answer the asking rule holds, so the session
ends after its ack.  The stream's 2067 remote sessions include 1019 such
repeats, all from removals and BGP updates, and the verdicts are those
pinned over plaintext queries.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from prelude.control import table_answer
from test_answers_pinned import CHURN_ACTIVE, CHURN_VERDICTS, sha256, workload


@pytest.fixture(scope="module")
def churn():
    """The plane after the seed-1 churn over smpc, its verdicts, the ids
    of its active rules, and the sessions of its stream: (kind of event,
    reused, k, AND depth, answer, the plaintext answer of the holder's
    table then)."""
    scenario = workload.gen.churn_scenario()
    runner = workload.ChurnRunner(scenario, "smpc", 1)
    recorder = workload.QueryRecorder(runner.plane)
    for policy in scenario.warm:
        runner.install(policy)
    sessions: list = []
    for event in scenario.events:
        recorder.pending.clear()
        kind, _ = runner.apply(event)
        for local, _, entries, result, stats, _ in recorder.pending:
            expected = {hop for hop, _ in table_answer(entries, local,
                                                       False)}
            sessions.append((kind, stats.reused, stats.k, stats.and_depth,
                             result.hops, expected))
    return (runner.plane, runner.verdicts, sorted(runner.active_ids()),
            sessions)


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
