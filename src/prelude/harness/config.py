"""Experiment configuration: defaults, INI parsing, validation.

One config object drives all three studies.  Every knob lives in a named
section of a plain INI file; anything not set falls back to a default
small enough for a laptop run.  The seed has no default on purpose: runs
must be reproducible, so the caller states one, either in the file or on
the command line.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from ..distinct_match import MAX_ENTRIES


class ConfigError(ValueError):
    """A config file said something unusable."""


# each (lo, hi) exchange size range, as errors name it
_SITE_SIZES = {"site_size": "site_size",
               "pathlen_site_size": "pathlen site_size"}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int | None = None
    out_dir: str = "results"

    # topology
    n_as: int = 50
    n_sdx: int = 8
    site_size: tuple[int, int] = (2, 2)

    # effectiveness workload
    n_prefixes: int = 3
    n_policies: int = 36
    port_pool: int = 4
    policy_family: str = "equality"
    thresholds: tuple[int, ...] = (1, 2, 3, 4, 6, 17)
    detectors: tuple[str, ...] = ("oracle", "prelude", "sidr")

    # path-length study
    pathlen_samples: int = 400
    pathlen_site_size: tuple[int, int] = (3, 8)

    # micro-benchmarks
    rule_counts: tuple[int, ...] = (1, 50)
    delays_ms: tuple[float, ...] = (1.0, 10.0)
    backends: tuple[str, ...] = ("gmw", "yao")
    repetitions: int = 50
    rule_width: int = 104

    def validated(self) -> "ExperimentConfig":
        if self.seed is None:
            raise ConfigError("a seed is required (config [run] or --seed)")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        if self.n_as < 3:
            raise ConfigError("n_as must be at least 3")
        if self.n_sdx < 1:
            raise ConfigError("n_sdx must be at least 1")
        for attr, name in _SITE_SIZES.items():
            lo, hi = getattr(self, attr)
            if not 2 <= lo <= hi:
                raise ConfigError(
                    f"{name} must be 'lo hi' with 2 <= lo <= hi")
            if hi > self.n_as:
                raise ConfigError(f"{name} upper bound {hi} exceeds "
                                  f"n_as {self.n_as}")
        if not 1 <= self.n_prefixes <= self.n_as:
            raise ConfigError("n_prefixes must be at least 1 and at most "
                              f"n_as {self.n_as}, one origin AS each")
        if self.n_policies < 1:
            raise ConfigError("n_policies must be at least 1")
        if self.port_pool < 1:
            raise ConfigError("port_pool must be at least 1")
        if self.policy_family not in ("equality", "mixed"):
            raise ConfigError("policy_family must be 'equality' or 'mixed'")
        if not self.thresholds or any(t < 0 for t in self.thresholds):
            raise ConfigError("thresholds must be non-negative")
        bad = set(self.detectors) - {"oracle", "prelude", "sidr"}
        if bad:
            raise ConfigError(f"unknown detectors: {sorted(bad)}")
        if self.pathlen_samples < 1:
            raise ConfigError("pathlen samples must be at least 1")
        if any(not 1 <= k <= MAX_ENTRIES for k in self.rule_counts):
            raise ConfigError(f"rule_counts must be from 1 to {MAX_ENTRIES}, "
                              "the most entries a query takes")
        if any(not math.isfinite(d) or d < 0 for d in self.delays_ms):
            raise ConfigError("delays_ms must be finite and non-negative")
        bad = set(self.backends) - {"gmw", "yao"}
        if bad:
            raise ConfigError(f"unknown backends: {sorted(bad)}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.rule_width < 1:
            raise ConfigError("rule_width must be positive")
        return self


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _words(raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


# section -> key -> (config attribute, parser)
_SCHEMA = {
    "run": {
        "seed": ("seed", int),
        "out": ("out_dir", str),
    },
    "topology": {
        "n_as": ("n_as", int),
        "n_sdx": ("n_sdx", int),
        "site_size": ("site_size", _ints),
    },
    "effectiveness": {
        "n_prefixes": ("n_prefixes", int),
        "n_policies": ("n_policies", int),
        "port_pool": ("port_pool", int),
        "family": ("policy_family", str),
        "thresholds": ("thresholds", _ints),
        "detectors": ("detectors", _words),
    },
    "pathlen": {
        "samples": ("pathlen_samples", int),
        "site_size": ("pathlen_site_size", _ints),
    },
    "microbench": {
        "rule_counts": ("rule_counts", _ints),
        "delays_ms": ("delays_ms", _floats),
        "backends": ("backends", _words),
        "repetitions": ("repetitions", int),
        "rule_width": ("rule_width", int),
    },
}


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Parse an INI file into a config, or return pure defaults."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    updates: dict[str, object] = {}
    for section in parser.sections():
        keys = _SCHEMA.get(section)
        if keys is None:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            spec = keys.get(key)
            if spec is None:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            attr, parse = spec
            try:
                updates[attr] = parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r}") from exc
    for attr, name in _SITE_SIZES.items():
        if attr in updates and len(updates[attr]) != 2:
            raise ConfigError(f"{name} takes exactly two integers")
    return replace(cfg, **updates)


def override(cfg: ExperimentConfig, *, seed: int | None = None,
             out_dir: str | None = None) -> ExperimentConfig:
    """Apply command-line overrides on top of a loaded config."""
    updates: dict[str, object] = {}
    if seed is not None:
        updates["seed"] = seed
    if out_dir is not None:
        updates["out_dir"] = out_dir
    return replace(cfg, **updates) if updates else cfg
