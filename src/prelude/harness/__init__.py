"""Experiment runners: effectiveness, path length, micro-benchmarks."""

from .config import ConfigError, ExperimentConfig, load_config, override
from .effectiveness import (
    ReplayEvent,
    Scenario,
    build_scenario,
    parse_event_line,
    replay,
    rows_from_events,
    run_effectiveness,
)
from .microbench import BenchCell, bench_cell, run_microbench
from .pathlen import CdfPoint, collect_spans, run_pathlen, sdx_span
from .results import ResultRow, write_csv

__all__ = [
    "BenchCell",
    "CdfPoint",
    "ConfigError",
    "ExperimentConfig",
    "ReplayEvent",
    "ResultRow",
    "Scenario",
    "bench_cell",
    "build_scenario",
    "collect_spans",
    "load_config",
    "override",
    "parse_event_line",
    "replay",
    "rows_from_events",
    "run_effectiveness",
    "run_microbench",
    "run_pathlen",
    "sdx_span",
    "write_csv",
]
