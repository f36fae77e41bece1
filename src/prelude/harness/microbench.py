"""Query-session micro-benchmarks.

Wall-clock timings depend on hardware and interpreter, so the stable
quantities here are the protocol-level counters: online rounds, one-way
flights on the longest causal chain of frames, and bytes moved in each
phase.  Timings are still recorded (mean and stdev
over the repetitions) because the delay-injected cells show the
round-structure dominating latency, but they are informative, not a
contract.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from ..distinct_match import (
    LoopbackEndpoint,
    NextHopId,
    RuleEntry,
    SdxMatchService,
    SessionStats,
)
from ..rules import random_rule
from .config import ExperimentConfig
from .results import write_csv

_BENCH_PREFIX = "203.0.113.0/24"


@dataclass(frozen=True)
class BenchCell:
    backend: str
    k: int
    delay_ms: float
    repetitions: int
    and_depth: int
    online_rounds: int
    flights: int
    setup_bytes: int
    online_bytes: int
    wall_ms_mean: float
    wall_ms_stdev: float


# the SessionStats counters every session of a cell must share, in
# BenchCell order
_EXACT = ("and_depth", "online_rounds", "flights", "setup_bytes",
          "online_bytes")


def _holder(k: int, width: int, rng: random.Random) -> SdxMatchService:
    service = SdxMatchService(sdx_id=2)
    hops: set[NextHopId] = set()
    while len(hops) < k:
        hops.add(NextHopId(rng.randrange(1, 1 << 16),
                           rng.randrange(1, 1 << 32)))
    for hop in sorted(hops):
        service.register(RuleEntry(rule=random_rule(width, rng),
                                   next_hop=hop, owner=hop.as_id,
                                   prefix=_BENCH_PREFIX))
    return service


def bench_cell(backend: str, k: int, delay_ms: float, repetitions: int,
               width: int, seed: int) -> BenchCell:
    """Run one parameter cell and aggregate its session stats."""
    rng = random.Random(f"microbench:{seed}:{backend}:{k}:{delay_ms}")
    service = _holder(k, width, rng)
    endpoint = LoopbackEndpoint(service, seed=rng.getrandbits(48),
                                one_way_delay=delay_ms / 1000.0)
    stats: list[SessionStats] = []
    for _ in range(repetitions):
        endpoint.query(random_rule(width, rng), _BENCH_PREFIX,
                       backend=backend, stats_out=stats)
    exact = {}
    for name in _EXACT:
        seen = {getattr(s, name) for s in stats}
        if len(seen) != 1:
            raise AssertionError(
                f"{name} varied across repetitions: {sorted(seen)}")
        exact[name] = seen.pop()
    walls = [s.online_wall_time * 1000.0 for s in stats]
    return BenchCell(
        backend=backend,
        k=k,
        delay_ms=delay_ms,
        repetitions=repetitions,
        **exact,
        wall_ms_mean=statistics.fmean(walls),
        wall_ms_stdev=statistics.stdev(walls) if len(walls) > 1 else 0.0,
    )


def run_microbench(cfg: ExperimentConfig) -> list[Path]:
    cfg = cfg.validated()
    cells = [bench_cell(backend, k, delay_ms, cfg.repetitions,
                        cfg.rule_width, cfg.seed)
             for backend in sorted(cfg.backends)
             for k in sorted(cfg.rule_counts)
             for delay_ms in sorted(cfg.delays_ms)]
    out = write_csv(Path(cfg.out_dir) / "microbench.csv", "microbench",
                    BenchCell, cells, {"delay_ms": "g", "wall_ms_mean": ".3f",
                                       "wall_ms_stdev": ".3f"})
    return [out]
