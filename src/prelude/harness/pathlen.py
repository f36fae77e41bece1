"""Deflected-path length study.

For sampled deflections the interesting quantity is how many exchange
points the traffic touches once deflected: the site where the deflection
happens plus every fabric the target's route crosses afterwards.  Short
spans keep loop checks cheap, so the study compares the span distribution
of relationship-preserving deflections against unrestricted ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..bgpsim import gr_compliant, traversed_sdxes
from .config import ExperimentConfig
from .effectiveness import draw_deflection, routed_world
from .results import write_csv


@dataclass(frozen=True)
class CdfPoint:
    mode: str
    sdx_count: int
    cumulative: float
    samples: int


def sdx_span(origin_sdx: int, path, sites) -> int:
    """Number of distinct exchanges a deflected path touches."""
    return len({origin_sdx} | set(traversed_sdxes(path, sites)))


def _cdf(mode: str, counts: list[int]) -> list[CdfPoint]:
    points = []
    total = len(counts)
    running = 0
    for value in range(1, max(counts, default=0) + 1):
        running += sum(1 for c in counts if c == value)
        points.append(CdfPoint(mode, value, running / total, total))
    return points


def collect_spans(cfg: ExperimentConfig) -> dict[str, list[int]]:
    """Sample deflections and bucket their spans by compliance mode.

    Relationship-preserving deflections are a small minority of the draw,
    so sampling keeps going past the random quota until the gr bucket has
    enough points for a stable curve (or an attempt cap is hit).
    """
    graph, sites, ribs, rng = routed_world(cfg, "pathlen",
                                           cfg.pathlen_site_size)
    prefixes = sorted(ribs)

    spans: dict[str, list[int]] = {"gr": [], "random": []}
    gr_quota = max(30, cfg.pathlen_samples // 10)
    attempts = 0
    while ((len(spans["random"]) < cfg.pathlen_samples
            or len(spans["gr"]) < gr_quota)
           and attempts < 200 * cfg.pathlen_samples):
        attempts += 1
        policy = draw_deflection(rng, sites, ribs, prefixes)
        if policy is None:
            continue
        rib = ribs[policy.prefix]
        span = sdx_span(policy.sdx_id, rib.path(policy.deflect_to), sites)
        if len(spans["random"]) < cfg.pathlen_samples:
            spans["random"].append(span)
        if gr_compliant(policy, rib, graph):
            spans["gr"].append(span)
    return spans


def run_pathlen(cfg: ExperimentConfig) -> list[Path]:
    cfg = cfg.validated()
    spans = collect_spans(cfg)
    points = [point for mode in sorted(spans)
              for point in _cdf(mode, spans[mode])]
    out = write_csv(Path(cfg.out_dir) / "pathlen.csv", "pathlen", CdfPoint,
                    points, {"cumulative": ".6f"})
    return [out]
