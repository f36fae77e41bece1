"""Per-layer metrics computed from the traced run's spans.

Session metrics come from the query sessions of the timed phase and, on
install-churn, of the yao replay that follows it.  Times are means per
session of one backend, so the layers of a session add up; exact counters
(rounds, bytes, AND gates, depth) are medians over non-empty sessions.
An "event" is one timed operation of the workload: a stream event on
install-churn, a round of one gmw and one yao session on the tables.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SESSION_PHASES = ("timed", "replay")
EVENTS = ("ControlPlane.install", "ControlPlane.remove",
          "ControlPlane.bgp_update")


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, out: dict) -> dict[str, float]:
    """Every per-layer metric of one traced workload run."""
    spans = tracer.spans
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    n_events = out["ops"]

    sessions = [s for s in spans if s[5] == "LoopbackEndpoint.query"
                and s[4] in SESSION_PHASES]
    timed_sessions = [s for s in sessions if s[4] == "timed"]
    per_session: dict[int, dict[str, float]] = {}
    for s in sessions:
        # Everything the session's spans do not cover is channel wait.
        acc: dict[str, float] = defaultdict(float)
        covered = 0.0
        for child in children[s[0]]:
            inner = (children[child[0]]
                     if child[5] == "SdxMatchService.serve_query" else [child])
            for c in inner:
                acc[c[5]] += c[8]
                covered += c[8]
                party = (c[9] or {}).get("party")
                if party:
                    acc[party] += c[8]
        acc["wait"] = s[8] - covered
        acc["transcript"] = tracer.transcript_s.get(s[0], 0.0)
        per_session[s[0]] = acc

    def of(backend):
        return [s for s in sessions if s[9]["backend"] == backend]

    def mean_ms(backend, key):
        return 1000 * _mean(per_session[s[0]][key] for s in of(backend))

    def exact(backend, key):
        return _median(s[9][key] for s in of(backend) if s[9].get("k"))

    def dealer(backend, key):
        return _median(d[9][key] for d in spans
                       if d[5] == "dealer_for_circuit" and d[4] in SESSION_PHASES
                       and d[9]["backend"] == backend)

    builds = [s for s in spans if s[5] == "build_batch_query"]
    m = {
        "circuits.build_ms": 1000 * sum(s[8] for s in builds),
        "circuits.builds": len(builds),
        "circuits.stage_ms": mean_ms("yao", "BatchQueryCircuit.distinct_stage"),
        "circuits.ands_gmw": dealer("gmw", "ands"),
        "circuits.ands_yao": dealer("yao", "ands"),
        "circuits.and_depth": dealer("gmw", "depth"),
        "smpc.dealer_ms": mean_ms("gmw", "dealer_for_circuit"),
        "smpc.gmw.compute_ms": mean_ms("gmw", "gmw_steps"),
        "smpc.gmw.reveal_ms": mean_ms("gmw", "reveal_steps"),
        "smpc.yao.garble_ms": mean_ms("yao", "garble_steps"),
        "smpc.yao.evaluate_ms": mean_ms("yao", "evaluate_steps"),
        "smpc.yao.release_ms": mean_ms("yao", "release_steps"),
        "smpc.yao.open_ms": mean_ms("yao", "open_steps"),
        "smpc.gmw.rounds": exact("gmw", "rounds"),
        "smpc.yao.rounds": exact("yao", "rounds"),
        "smpc.gmw.setup_bytes": exact("gmw", "setup_bytes"),
        "smpc.gmw.online_bytes": exact("gmw", "online_bytes"),
        "smpc.yao.setup_bytes": exact("yao", "setup_bytes"),
        "smpc.yao.online_bytes": exact("yao", "online_bytes"),
        "smpc.channel.wait_ms": 1000 * _mean(a["wait"] for a in per_session.values()),
        "smpc.transcript_ms": 1000 * _mean(
            a["transcript"] for a in per_session.values()),
        "distinct_match.holder_ms": 1000 * _mean(
            a["holder"] for a in per_session.values()),
        "distinct_match.querier_ms": 1000 * _mean(
            a["querier"] for a in per_session.values()),
        "distinct_match.entries_per_session": _mean(
            s[9].get("k", 0) for s in timed_sessions),
        "distinct_match.empty_sessions_per_event": _ratio(
            sum(1 for s in timed_sessions if s[9].get("k") == 0), n_events),
        "distinct_match.sessions_per_event": _ratio(len(timed_sessions),
                                                    n_events),
    }

    timed = [s for s in spans if s[4] == "timed"]
    events = [s for s in timed if s[5] in EVENTS]
    explorations = [s for s in timed if s[5] == "explore_deflection"]
    queries = defaultdict(list)
    for s in timed:
        if s[5] == "ControlPlane.query":
            queries[s[1]].append(s[9]["target"])
    n_queries = sum(len(q) for q in queries.values())
    session_s = defaultdict(float)
    for s in timed_sessions:
        session_s[s[3]] += s[8]
    removals = {s[0] for s in events if s[5] == "ControlPlane.remove"}
    statuses = [s[9]["status"] for s in explorations]
    m.update({
        "control.explorations_per_event": _ratio(len(explorations), n_events),
        "control.queries_per_exploration": _ratio(n_queries, len(explorations)),
        "control.unique_query_ratio": _ratio(
            sum(len(set(q)) for q in queries.values()), n_queries),
        "control.self_ms_per_event": 1000 * _ratio(
            sum(e[8] - session_s[e[0]] for e in events), n_events),
        "control.reverify_per_removal": _ratio(
            sum(1 for s in explorations if s[3] in removals), len(removals)),
        "control.verdicts.safe": statuses.count("safe"),
        "control.verdicts.loop_detected": statuses.count("loop_detected"),
        "control.verdicts.budget_exhausted": statuses.count("budget_exhausted"),
        "control.deactivations": out.get("deactivations", 0),
        "trace.spans": len(spans),
        "trace.op_ms": out["metrics"]["op_ms"],
    })
    return m
