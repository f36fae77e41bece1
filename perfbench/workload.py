"""One benchmark workload in one single-threaded process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only]

Imports the program from ``src/`` of the checkout this file sits in, sets
the workload up, runs as many whole operations as end within ``--seconds``,
checks every answer, and prints one JSON object: its measurements, the
operations attempted and failed, and whether every check held.
``perfbench/run.py`` starts this process and turns that object into the
benchmark's result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

PROCESS_START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from overlap import expected_hops  # noqa: E402
from pace import Pace  # noqa: E402

WORKLOADS = {
    # name: (holder table size, one-way delay in seconds)
    "wide-table": (500, 0.0),
    "wan-table": (8, 0.010),
    "install-churn": None,
}
BACKENDS = ("gmw", "yao")
YAO_ROUNDS = 2
CHURN_YAO_REPLAYS = 48  # remote queries of the stream re-run over yao
CHURN_PACE_EVERY = 25  # warm-phase installs between two pace samples
TABLE_PACE = 6  # pace loops before each session of a zero-delay table


class CheckFailed(Exception):
    """The program gave an answer the benchmark's own check rejects."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "prelude" / "__init__.py").is_file():
        raise SystemExit(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import prelude

    if Path(prelude.__file__).resolve().parent != src / "prelude":
        raise SystemExit(f"imported prelude from {prelude.__file__}, not {src}")


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> str:
    """Mean, median and the highest percentile with ten samples beyond it."""
    n = len(samples)
    text = (f"mean={statistics.fmean(samples):.4g} "
            f"median={statistics.median(samples):.4g} n={n}")
    if n >= 40:
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        for pct in (99.9, 99.0, 90.0, 75.0):
            if n * (1 - pct / 100) >= 10:
                text += f" p{pct:g}={cuts[round(pct * 10) - 1]:.4g}"
                break
    return text


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# --------------------------------------------------------------------------
# wide-table and wan-table


def run_table(name: str, seed: int, seconds: float, tracer, setup_only: bool):
    from prelude.distinct_match import (
        LoopbackEndpoint,
        NextHopId,
        QueryAborted,
        RuleEntry,
        SdxMatchService,
    )
    from prelude.rules import TernaryRule

    k, delay = WORKLOADS[name]
    # Zero-delay sessions are pure computation: pace them (see pace.py).
    # Sleeping dominates wan-table sessions, so its times stay raw.
    paced = delay == 0
    setup_pace = Pace()
    timed_pace = Pace()
    ref_s = setup_pace.sample(TABLE_PACE) if paced else 0.0
    table = gen.holder_table(seed, k)
    service = SdxMatchService(gen.HOLDER_SDX)
    for i, (pattern, mask, hop) in enumerate(table):
        service.register(RuleEntry(
            rule=TernaryRule(gen.RULE_WIDTH, pattern, mask),
            next_hop=NextHopId(*hop), owner=100 + i, prefix=gen.PREFIX))
    endpoint = LoopbackEndpoint(service, seed=seed, one_way_delay=delay)
    samples = {b: {"ms": [], "kb": []} for b in BACKENDS}
    rounds_ms: list[float] = []
    counts = {"attempted": 0, "failed": 0, "overlapping": 0}

    def one_round(index: int, record: bool, pace: Pace) -> float:
        """Query both backends; returns the seconds spent pacing."""
        pattern, mask = gen.query_rule(seed, k, index, table)
        expected = expected_hops((pattern, mask), table)
        rule = TernaryRule(gen.RULE_WIDTH, pattern, mask)
        round_s = 0.0
        paced_s = 0.0
        for backend in BACKENDS:
            if paced:
                paced_s += pace.sample(TABLE_PACE)
            stats: list = []
            start = perf_counter()
            try:
                result = endpoint.query(rule, gen.PREFIX, backend,
                                        stats_out=stats)
            except QueryAborted:
                if record:
                    counts["attempted"] += 1
                    counts["failed"] += 1
                continue
            took = perf_counter() - start
            got = {(h.sdx_id, h.as_id) for h in result.hops}
            check(got == expected,
                  f"{backend} query {index}: hops {sorted(got)}, "
                  f"expected {sorted(expected)}")
            s = stats[0]
            check(s.k == k, f"{backend} session saw k={s.k}, table has {k}")
            want = s.and_depth + 1 if backend == "gmw" else YAO_ROUNDS
            check(s.online_rounds == want,
                  f"{backend} session took {s.online_rounds} online rounds, "
                  f"expected {want}")
            round_s += took
            if record:
                counts["attempted"] += 1
                counts["overlapping"] += bool(expected)
                samples[backend]["ms"].append(took * 1000)
                samples[backend]["kb"].append(
                    (s.setup_bytes + s.online_bytes) / 1000)
        if record:
            rounds_ms.append(round_s * 1000)
        return paced_s

    # Set-up ends with one warm round, which builds the circuits.
    if paced:
        ref_s += setup_pace.sample(TABLE_PACE)
    ref_s += one_round(0, False, setup_pace)
    if paced:
        ref_s += setup_pace.sample(TABLE_PACE)
    setup_raw = perf_counter() - PROCESS_START - ref_s
    setup_scale = setup_pace.scale() if paced else 1.0
    if setup_only:
        return {"setup_s": setup_raw * setup_scale}

    if tracer:
        tracer.phase = "timed"
    # Whole rounds, as many as end within ``seconds``.
    start = perf_counter()
    index = 1
    while True:
        one_round(index, True, timed_pace)
        spent = perf_counter() - start
        if spent * (index + 1) / index > seconds:
            break
        index += 1
    peak = rss_mb()
    check(counts["overlapping"] > 0, "no query overlapped any table entry")

    scale = timed_pace.scale() if paced else 1.0
    metrics = {"setup_s": setup_raw * setup_scale, "peak_rss_mb": peak,
               "op_ms": statistics.fmean(rounds_ms) * scale,
               "ops_per_s": 1000 * len(rounds_ms) / sum(rounds_ms) / scale}
    notes = [f"raw wall times follow; paced metrics are these times "
             f"{scale:.3f}x, set-up {setup_raw:.3f} s {setup_scale:.3f}x",
             f"op_ms (one gmw and one yao session): {tail(rounds_ms)}"]
    for backend in BACKENDS:
        ms = samples[backend]["ms"]
        metrics[f"{backend}_session_ms"] = statistics.fmean(ms) * scale
        metrics[f"{backend}_session_kb"] = statistics.fmean(
            samples[backend]["kb"])
        notes.append(f"{backend}_session_ms: {tail(ms)}")
    notes.append(f"sessions whose query overlaps an entry: "
                 f"{counts['overlapping']} of {counts['attempted']}")
    return {"metrics": metrics, "notes": notes, "ops": len(rounds_ms),
            "attempted": counts["attempted"], "failed": counts["failed"]}


# --------------------------------------------------------------------------
# install-churn


class ChurnRunner:
    """Runs the scenario's events on one control plane and records verdicts."""

    def __init__(self, scenario, transport: str, seed: int) -> None:
        from prelude.control import ControlPlane

        self.scenario = scenario
        self.plane = ControlPlane(scenario.graph, scenario.sites,
                                  scenario.ribs, transport=transport,
                                  seed=seed)
        self.installs: list[tuple] = []  # (owner, rule id, prefix) by index
        self.verdicts: list[tuple] = []
        self._alt = {prefix: 0 for prefix in scenario.ribs}

    def _verdict(self, verdict) -> tuple:
        self.verdicts.append((verdict.decision, verdict.reason,
                              verdict.closed_at))
        return verdict

    def install(self, policy):
        verdict = self._verdict(self.plane.install(policy))
        self.installs.append((policy.owner, verdict.rule_id, policy.prefix))
        return verdict

    def apply(self, event) -> tuple[str, str]:
        """Run one stream event; returns (kind, prefix it touched)."""
        kind, arg = event
        if kind == "install":
            self.install(arg)
            return kind, arg.prefix
        if kind == "remove":
            owner, rule_id, prefix = self.installs[arg]
            self.verdicts.append(("removed", self.plane.remove(owner, rule_id)))
            return kind, prefix
        self._alt[arg] = (self._alt[arg] + 1) % (len(self.scenario.alt_ribs[arg]) + 1)
        pos = self._alt[arg]
        rib = (self.scenario.ribs[arg] if pos == 0
               else self.scenario.alt_ribs[arg][pos - 1])
        for verdict in self.plane.bgp_update(arg, rib):
            self._verdict(verdict)
        return kind, arg

    def active_ids(self) -> set[str]:
        return {rule_id for node in self.plane.nodes.values()
                for rule_id, record in node.registry.items() if record.active}


class QueryRecorder:
    """Wraps each exchange's endpoint to time its sessions and keep what
    each query asked and got, with the holder's table as it stood then."""

    def __init__(self, plane) -> None:
        self.pending: list[tuple] = []
        for node in plane.nodes.values():
            node.endpoint.query = self._wrap(node.service, node.endpoint.query)

    def _wrap(self, service, query):
        pending = self.pending

        def recorded(local, prefix, backend="gmw", stats_out=None, **kwargs):
            entries = service.entries_for(prefix)
            stats = [] if stats_out is None else stats_out
            start = perf_counter()
            result = query(local, prefix, backend, stats_out=stats, **kwargs)
            took = perf_counter() - start
            pending.append((local, prefix, entries, result, stats[-1], took))
            return result

        return recorded


def check_answer(rule, entries, result, what: str) -> None:
    table = [(e.rule.pattern, e.rule.mask, (e.next_hop.sdx_id, e.next_hop.as_id))
             for e in entries]
    expected = expected_hops((rule.pattern, rule.mask), table)
    got = {(h.sdx_id, h.as_id) for h in result.hops}
    check(got == expected,
          f"{what}: hops {sorted(got)}, expected {sorted(expected)}")


def run_churn(seed: int, seconds: float, tracer, setup_only: bool):
    # The whole stream runs whatever ``seconds`` says, so that its counts
    # compare exactly between commits.
    from prelude.bgpsim import forwarding_oracle
    from prelude.control import QUERY_FAILED
    from prelude.distinct_match import LoopbackEndpoint, SdxMatchService

    setup_pace = Pace()
    ref_s = setup_pace.sample()
    scenario = gen.churn_scenario()
    runner = ChurnRunner(scenario, "smpc", seed)
    plane = runner.plane
    recorder = QueryRecorder(plane)
    for i, policy in enumerate(scenario.warm):
        if i % CHURN_PACE_EVERY == 0:
            ref_s += setup_pace.sample()
        runner.install(policy)
    ref_s += setup_pace.sample()
    setup_raw = perf_counter() - PROCESS_START - ref_s
    setup_s = setup_raw * setup_pace.scale()
    if setup_only:
        return {"setup_s": setup_s}

    checked_states: set = set()

    def check_after(what: str, prefixes) -> None:
        for local, prefix, entries, result, stats, _ in recorder.pending:
            check_answer(local, entries, result, what)
        recorder.pending.clear()
        for prefix in prefixes:
            policies = plane.active_policies(prefix)
            state = (prefix, id(plane.rib(prefix)), frozenset(policies))
            if state in checked_states:
                continue
            loops = forwarding_oracle(scenario.graph, plane.rib(prefix),
                                      policies, prefix)
            check(not loops, f"{what}: forwarding loop {sorted(loops, key=str)[:1]}")
            checked_states.add(state)

    check_after("warm phase", sorted(scenario.ribs))
    n_warm_verdicts = len(runner.verdicts)
    n_warm_events = len(plane.events)

    if tracer:
        tracer.phase = "timed"
    install_ms: list[float] = []
    sessions: list[tuple] = []  # (ms, kb, k) of remote gmw sessions
    replays: list[tuple] = []  # the first remote queries, for the yao replay
    n_events = 0
    elapsed = 0.0
    timed_pace = Pace()
    for event in scenario.events:
        timed_pace.sample()
        start = perf_counter()
        kind, prefix = runner.apply(event)
        took = perf_counter() - start
        elapsed += took
        n_events += 1
        if kind == "install":
            install_ms.append(took * 1000)
        for local, qprefix, entries, result, s, q_took in recorder.pending:
            sessions.append((q_took * 1000,
                             (s.setup_bytes + s.online_bytes) / 1000, s.k))
            if len(replays) < CHURN_YAO_REPLAYS:
                replays.append((local, qprefix, entries, result))
        check_after(f"event {n_events} ({kind})", [prefix])
    peak = rss_mb()
    stream_verdicts = runner.verdicts[n_warm_verdicts:]
    check(all(v[1] != QUERY_FAILED for v in runner.verdicts
              if v[0] != "removed"), "a verdict reports a failed query")

    # The same events over plaintext queries must give the same verdicts.
    if tracer:
        tracer.phase = "check"
    direct = ChurnRunner(scenario, "direct", seed)
    for policy in scenario.warm:
        direct.install(policy)
    for event in scenario.events:
        direct.apply(event)
    check(direct.verdicts == runner.verdicts,
          "verdicts over smpc differ from verdicts over direct queries")
    check(direct.active_ids() == runner.active_ids(),
          "active rules over smpc differ from those over direct queries")

    # The stream's first remote queries again, over yao, against the
    # holder's table as each query saw it.
    if tracer:
        tracer.phase = "replay"
    yao_ms: list[float] = []
    yao_kb: list[float] = []
    replay_pace = Pace()
    for i, (local, prefix, entries, result) in enumerate(replays):
        replay_pace.sample()
        service = SdxMatchService(gen.HOLDER_SDX)
        for entry in entries:
            service.register(entry)
        endpoint = LoopbackEndpoint(service, seed=seed * 1000 + i)
        stats: list = []
        start = perf_counter()
        again = endpoint.query(local, prefix, "yao", stats_out=stats)
        yao_ms.append((perf_counter() - start) * 1000)
        check_answer(local, entries, again, f"yao replay {i}")
        check(again.hops == result.hops, f"yao replay {i} differs from gmw")
        check(stats[0].online_rounds == YAO_ROUNDS or stats[0].k == 0,
              f"yao replay {i} took {stats[0].online_rounds} rounds")
        yao_kb.append((stats[0].setup_bytes + stats[0].online_bytes) / 1000)

    gmw_ms = [ms for ms, *_ in sessions]
    deactivations = sum(1 for e in plane.events[n_warm_events:]
                        if e.kind == "deactivate")
    scale = timed_pace.scale()
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "gmw_session_ms": statistics.fmean(gmw_ms) * scale,
        "gmw_session_kb": statistics.fmean(s[1] for s in sessions),
        "yao_session_ms": statistics.fmean(yao_ms) * replay_pace.scale(),
        "yao_session_kb": statistics.fmean(yao_kb),
        "op_ms": statistics.fmean(install_ms) * scale,
        "ops_per_s": n_events / elapsed / scale,
    }
    kinds = [kind for kind, _ in scenario.events]
    notes = [
        f"raw wall times follow; paced metrics are these times {scale:.3f}x "
        f"(yao replay {replay_pace.scale():.3f}x), "
        f"set-up {setup_raw:.3f} s {setup_pace.scale():.3f}x",
        f"op_ms (install verdicts): {tail(install_ms)}",
        f"gmw_session_ms (remote sessions of the stream): {tail(gmw_ms)}",
        f"yao_session_ms (first {len(replays)} remote queries over yao): "
        f"{tail(yao_ms)}",
        f"events: {n_events} ({kinds.count('install')} installs, "
        f"{kinds.count('remove')} removals, "
        f"{kinds.count('bgp_update')} BGP updates) in {elapsed:.2f} s; "
        f"{len(sessions)} remote sessions, "
        f"{sum(1 for s in sessions if s[2] == 0)} of them on empty tables; "
        f"{deactivations} deactivations",
        "verdicts: " + ", ".join(
            f"{reason}={sum(1 for v in stream_verdicts if v[1] == reason)}"
            for reason in ("safe", "loop_detected", "budget_exhausted")),
    ]
    return {"metrics": metrics, "notes": notes, "ops": n_events,
            "attempted": n_events, "failed": 0,
            "deactivations": deactivations}


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    tracer = None
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    try:
        if args.workload == "install-churn":
            out = run_churn(args.seed, args.seconds, tracer, args.setup_only)
        else:
            out = run_table(args.workload, args.seed, args.seconds, tracer,
                            args.setup_only)
        out["correct"] = True
    except CheckFailed as exc:
        print(json.dumps({"correct": False, "error": str(exc)}))
        return 1
    if tracer:
        out["layers"] = layers.per_layer(tracer, out)
        results = ROOT / "results"
        results.mkdir(exist_ok=True)
        path = results / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        out["notes"].append(f"{len(tracer.spans)} spans written to "
                            f"{path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
