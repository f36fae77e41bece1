"""Experiment runners: effectiveness, path length, micro-benchmarks."""

from .config import ConfigError, ExperimentConfig, load_config, override
from .effectiveness import (
    Scenario,
    build_scenario,
    replay,
    rows_from_events,
    run_effectiveness,
)
from .microbench import bench_cell, run_microbench
from .pathlen import collect_spans, run_pathlen, sdx_span
from .results import ResultRow
