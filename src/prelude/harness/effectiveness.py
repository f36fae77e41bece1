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
           every registered rule for the prefix counts as overlapping
           (:func:`prelude.control.sidr_baseline`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from ..bgpsim import (
    AsGraph,
    DeflectionPolicy,
    RibState,
    SdxSite,
    compute_routes,
    forwarding_oracle,
    generate_topology,
)
from ..control import (
    SAFE,
    StaticMatchView,
    explore_deflection,
    rule_entry,
    sidr_baseline,
)
from ..distinct_match import RuleEntry
from ..rules import FlowSpec, PROTO_TCP, PROTO_UDP, encode
from .config import ExperimentConfig
from .results import ResultRow, write_csv

# Exact ports drawn for generated rules, most common services first.
_PORTS = (80, 443, 22, 53, 25, 123, 8080, 3306, 5060, 993, 6881, 1194)

_EVERYTHING = encode(FlowSpec())


def _port_pool(size: int) -> tuple[int, ...]:
    pool = list(_PORTS[:size])
    next_port = 10000
    while len(pool) < size:
        pool.append(next_port)
        next_port += 1
    return tuple(pool)


def routed_world(cfg: ExperimentConfig, study: str,
                 site_size: tuple[int, int]):
    """A study's world: the topology with exchanges of ``site_size``
    members, the study's random stream, and the routes to
    ``cfg.n_prefixes`` prefixes originated by ASes drawn from that stream.

    Returns (graph, sites, ribs, rng).
    """
    graph, sites = generate_topology(cfg.n_as, cfg.n_sdx, cfg.seed,
                                     sdx_size_range=site_size)
    rng = random.Random(f"{study}:{cfg.seed}")
    origins = rng.sample(graph.as_ids, cfg.n_prefixes)
    ribs = {f"198.51.{i}.0/24": compute_routes(graph, origin)
            for i, origin in enumerate(origins)}
    return graph, sites, ribs, rng


def draw_deflection(rng: random.Random, sites, ribs: dict[str, RibState],
                    prefixes: list[str]) -> DeflectionPolicy | None:
    """Draw an exchange, an owner and a target among its members, and one
    of ``prefixes``, in that order; the policy deflects all traffic.

    None when the target has no route to the prefix or is already the
    owner's next hop, since such a policy deflects nothing.
    """
    site = rng.choice(sites)
    owner, target = rng.sample(sorted(site.members), 2)
    prefix = rng.choice(prefixes)
    route = ribs[prefix].get(owner)
    if ribs[prefix].get(target) is None or (
            route is not None and route.next_hop == target):
        return None
    return DeflectionPolicy(owner=owner, sdx_id=site.sdx_id,
                            rule=_EVERYTHING, deflect_to=target,
                            prefix=prefix)


@dataclass(frozen=True)
class Scenario:
    graph: AsGraph
    sites: tuple[SdxSite, ...]
    ribs: dict[str, RibState]
    arrivals: tuple[DeflectionPolicy, ...]


def build_scenario(cfg: ExperimentConfig) -> Scenario:
    """Deterministically derive the workload a config describes."""
    graph, sites, ribs, rng = routed_world(cfg, "effectiveness",
                                           cfg.site_size)
    prefixes = sorted(ribs)
    pool = _port_pool(cfg.port_pool)

    # a policy drawn twice keeps its first place
    arrivals: dict[DeflectionPolicy, None] = {}
    attempts = 0
    while len(arrivals) < cfg.n_policies and attempts < 80 * cfg.n_policies:
        attempts += 1
        drawn = draw_deflection(rng, sites, ribs, prefixes)
        # a target whose route runs back through the owner loops with no
        # help from anyone; real operators do not submit those
        if drawn is None or drawn.owner in ribs[drawn.prefix].path(
                drawn.deflect_to):
            continue
        if cfg.policy_family == "equality":
            spec = FlowSpec(ip_proto=PROTO_TCP, dst_port=rng.choice(pool))
        else:
            proto = rng.choice((PROTO_TCP, PROTO_UDP))
            port_field = rng.choice(("src_port", "dst_port"))
            spec = FlowSpec(ip_proto=proto,
                            **{port_field: rng.choice(pool)})
        arrivals[replace(drawn, rule=encode(spec))] = None
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


def replay(scenario: Scenario, detectors: tuple[str, ...],
           thresholds: tuple[int, ...],
           ) -> tuple[list[ResultRow], list[ReplayEvent]]:
    """Run every (detector, threshold) over the arrival sequence; the
    table is tallied from the events, as :func:`rows_from_events` does."""
    sites = list(scenario.sites)
    entries: dict[int, list[RuleEntry]] = {s.sdx_id: [] for s in sites}
    view = StaticMatchView(sites, scenario.ribs, entries)

    events: list[ReplayEvent] = []
    active: list[DeflectionPolicy] = []
    for index, arrival in enumerate(scenario.arrivals):
        rib = scenario.ribs[arrival.prefix]
        siblings = [p for p in active if p.prefix == arrival.prefix]
        truth_loop = bool(forwarding_oracle(
            scenario.graph, rib, siblings + [arrival], arrival.prefix))
        truth = "loop" if truth_loop else "clean"
        for detector in detectors:
            for t in thresholds:
                if detector == "oracle":
                    is_reject = truth_loop
                elif detector == "sidr":
                    is_reject = not sidr_baseline(view, arrival, t).accepted
                else:
                    is_reject = explore_deflection(view, arrival,
                                                   t).status != SAFE
                events.append(ReplayEvent(
                    index, detector, t,
                    "reject" if is_reject else "accept", truth))
        if not truth_loop:
            active.append(arrival)
            entries[arrival.sdx_id].append(rule_entry(arrival))
    cells = [(detector, t) for detector in detectors for t in thresholds]
    return rows_from_events(events, cells), events


def rows_from_events(events: list[ReplayEvent],
                     cells: Iterable[tuple[str, int]] = (),
                     ) -> list[ResultRow]:
    """Recompute the result table from the event log alone.

    Each (detector, threshold) of ``cells`` has a row even when no event
    names it, as when a scenario has no arrivals.
    """
    indexes = {e.index for e in events}
    loops = {e.index for e in events if e.truth == "loop"}
    tallies = {cell: [0, 0] for cell in cells}  # rejected, false positives
    for e in events:
        tally = tallies.setdefault((e.detector, e.path_threshold), [0, 0])
        if e.decision == "reject":
            tally[0] += 1
            if e.truth == "clean":
                tally[1] += 1
    return [ResultRow("effectiveness", detector, t, len(indexes),
                      rejected, len(loops), false_positives)
            for (detector, t), (rejected, false_positives)
            in sorted(tallies.items())]


def run_effectiveness(cfg: ExperimentConfig) -> list[Path]:
    """Build the scenario, replay it, and write CSV plus event log."""
    cfg = cfg.validated()
    scenario = build_scenario(cfg)
    rows, events = replay(scenario, cfg.detectors, cfg.thresholds)
    out = Path(cfg.out_dir)
    csv_path = write_csv(out / "effectiveness.csv", "effectiveness",
                         ResultRow, rows,
                         {"fp_rate": ".6f", "fp_rate_all": ".6f"})
    log_path = out / "effectiveness_events.log"
    log_path.write_text("".join(e.line() + "\n" for e in events))
    return [csv_path, log_path]
