"""Loop-detection effectiveness study.

One seeded scenario is a topology, per-prefix routing, and a fixed
sequence of policy arrivals.  Every detector sees the same sequence and
the same evolving rule state: the state advances by ground truth (an
arrival joins the installed set iff the forwarding oracle finds no loop),
so detector verdicts stay comparable arrival by arrival instead of
drifting apart on divergent histories.

Detectors:

  oracle:  rejects exactly the arrivals that would close a loop.
  prelude: match-aware exploration at a given path threshold.
  sidr:    the same exploration of a rule that matches all traffic, so
           every registered rule for the prefix counts as overlapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from ..bgpsim import (
    AsGraph,
    DeflectionPolicy,
    RibState,
    SdxSite,
    compute_routes,
    forwarding_oracle,
    generate_topology,
)
from ..control import SAFE, StaticMatchView, explore_deflection, rule_entry
from ..distinct_match import RuleEntry
from ..rules import FlowSpec, PROTO_TCP, PROTO_UDP, TernaryRule, encode
from .config import ExperimentConfig
from .results import (
    EFFECTIVENESS_COLUMNS,
    ResultRow,
    effectiveness_record,
    write_csv,
)

# Exact ports drawn for generated rules, most common services first.
_PORTS = (80, 443, 22, 53, 25, 123, 8080, 3306, 5060, 993, 6881, 1194)


def _port_pool(size: int) -> tuple[int, ...]:
    pool = list(_PORTS[:size])
    next_port = 10000
    while len(pool) < size:
        pool.append(next_port)
        next_port += 1
    return tuple(pool)


@dataclass(frozen=True)
class Scenario:
    graph: AsGraph
    sites: tuple[SdxSite, ...]
    ribs: dict[str, RibState]
    arrivals: tuple[DeflectionPolicy, ...]


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Deterministically derive the workload a config describes."""
    graph, sites = generate_topology(cfg.n_as, cfg.n_sdx, cfg.seed,
                                     sdx_size_range=cfg.site_size)
    rng = random.Random(f"effectiveness:{cfg.seed}")
    origins = rng.sample(graph.as_ids, cfg.n_prefixes)
    ribs = {f"198.51.{i}.0/24": compute_routes(graph, origin)
            for i, origin in enumerate(origins)}
    prefixes = sorted(ribs)
    pool = _port_pool(cfg.port_pool)

    arrivals: list[DeflectionPolicy] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(arrivals) < cfg.n_policies and attempts < 80 * cfg.n_policies:
        attempts += 1
        site = rng.choice(sites)
        members = sorted(site.members)
        owner, target = rng.sample(members, 2)
        prefix = rng.choice(prefixes)
        rib = ribs[prefix]
        if rib.get(target) is None:
            continue
        route = rib.get(owner)
        if route is not None and route.next_hop == target:
            continue
        # a target whose route runs back through the owner loops with no
        # help from anyone; real operators do not submit those
        if owner in rib.path(target):
            continue
        if cfg.policy_family == "equality":
            spec = FlowSpec(ip_proto=PROTO_TCP, dst_port=rng.choice(pool))
        else:
            proto = rng.choice((PROTO_TCP, PROTO_UDP))
            port_field = rng.choice(("src_port", "dst_port"))
            spec = FlowSpec(ip_proto=proto,
                            **{port_field: rng.choice(pool)})
        key = (site.sdx_id, owner, target, prefix, spec)
        if key in seen:
            continue
        seen.add(key)
        arrivals.append(DeflectionPolicy(
            owner=owner, sdx_id=site.sdx_id, rule=encode(spec),
            deflect_to=target, prefix=prefix))
    return Scenario(graph, tuple(sites), ribs, tuple(arrivals))


@dataclass(frozen=True)
class ReplayEvent:
    """One detector verdict on one arrival, for log cross-checks."""

    index: int
    detector: str
    path_threshold: int
    decision: str
    truth: str

    def line(self) -> str:
        return (f"{self.index} {self.detector} t={self.path_threshold} "
                f"{self.decision} truth={self.truth}")


def parse_event_line(line: str) -> ReplayEvent:
    index, detector, t_tok, decision, truth_tok = line.split()
    return ReplayEvent(int(index), detector, int(t_tok.removeprefix("t=")),
                       decision, truth_tok.removeprefix("truth="))


def replay(scenario: Scenario, detectors: tuple[str, ...],
           thresholds: tuple[int, ...],
           ) -> tuple[list[ResultRow], list[ReplayEvent]]:
    """Run every (detector, threshold) over the arrival sequence."""
    sites = list(scenario.sites)
    entries: dict[int, list[RuleEntry]] = {s.sdx_id: [] for s in sites}
    view = StaticMatchView(sites, scenario.ribs, entries)

    rejected: dict[tuple[str, int], int] = {}
    false_pos: dict[tuple[str, int], int] = {}
    for detector in detectors:
        for t in thresholds:
            rejected[detector, t] = 0
            false_pos[detector, t] = 0

    events: list[ReplayEvent] = []
    active: list[DeflectionPolicy] = []
    n_loops = 0
    for index, arrival in enumerate(scenario.arrivals):
        rib = scenario.ribs[arrival.prefix]
        siblings = [p for p in active if p.prefix == arrival.prefix]
        truth_loop = bool(forwarding_oracle(
            scenario.graph, rib, siblings + [arrival], arrival.prefix))
        truth = "loop" if truth_loop else "clean"
        walked = {"prelude": arrival, "sidr": replace(
            arrival, rule=TernaryRule.wildcard(arrival.rule.width))}
        for detector in detectors:
            for t in thresholds:
                if detector == "oracle":
                    is_reject = truth_loop
                else:
                    exploration = explore_deflection(view, walked[detector], t)
                    is_reject = exploration.status != SAFE
                if is_reject:
                    rejected[detector, t] += 1
                    if not truth_loop:
                        false_pos[detector, t] += 1
                events.append(ReplayEvent(
                    index, detector, t,
                    "reject" if is_reject else "accept", truth))
        if truth_loop:
            n_loops += 1
        else:
            active.append(arrival)
            entries[arrival.sdx_id].append(rule_entry(arrival))

    rows = []
    for detector in detectors:
        for t in thresholds:
            rows.append(ResultRow(
                experiment="effectiveness",
                detector=detector,
                path_threshold=t,
                installed=len(scenario.arrivals),
                rejected=rejected[detector, t],
                true_loops=n_loops,
                false_positives=false_pos[detector, t]))
    rows.sort(key=lambda r: (r.experiment, r.detector, r.path_threshold))
    return rows, events


def rows_from_events(events: list[ReplayEvent]) -> list[ResultRow]:
    """Recompute the result table from the event log alone."""
    indexes = {e.index for e in events}
    loops = {e.index for e in events if e.truth == "loop"}
    cells: dict[tuple[str, int], tuple[int, int]] = {}
    for e in events:
        rej, fp = cells.get((e.detector, e.path_threshold), (0, 0))
        if e.decision == "reject":
            rej += 1
            if e.truth == "clean":
                fp += 1
        cells[e.detector, e.path_threshold] = (rej, fp)
    rows = [ResultRow("effectiveness", detector, t, len(indexes),
                      rej, len(loops), fp)
            for (detector, t), (rej, fp) in cells.items()]
    rows.sort(key=lambda r: (r.experiment, r.detector, r.path_threshold))
    return rows


def run_effectiveness(cfg: ExperimentConfig) -> list[Path]:
    """Build the scenario, replay it, and write CSV plus event log."""
    cfg = cfg.validated()
    scenario = build_scenario(cfg)
    rows, events = replay(scenario, cfg.detectors, cfg.thresholds)
    out = Path(cfg.out_dir)
    csv_path = write_csv(out / "effectiveness.csv", EFFECTIVENESS_COLUMNS,
                         [effectiveness_record(r) for r in rows])
    log_path = out / "effectiveness_events.log"
    log_path.write_text("".join(e.line() + "\n" for e in events))
    return [csv_path, log_path]
