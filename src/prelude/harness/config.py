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

from ..distinct_match import BACKENDS, MAX_ENTRIES


class ConfigError(ValueError):
    """A config file said something unusable."""


# the (lo, hi) exchange size ranges
_SITE_SIZES = ("site_size", "pathlen_site_size")


# each integer knob's least value
_FLOORS = {"n_as": 3, "n_sdx": 1, "n_prefixes": 1, "n_policies": 1,
           "port_pool": 1, "pathlen_samples": 1, "repetitions": 1,
           "rule_width": 1}

# each name knob's allowed values
_NAMES = {"policy_family": ("equality", "mixed"),
          "detectors": ("oracle", "prelude", "sidr"),
          "backends": BACKENDS}

# The list knobs.  Each value names cells of a study's table, so an empty
# list would write a table of no cells, and a value given twice would run,
# and count, its cells twice.
_LISTS = ("detectors", "thresholds", "backends", "rule_counts", "delays_ms")


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
        for key, least in _FLOORS.items():
            if getattr(self, key) < least:
                raise ConfigError(f"{_KEYS[key]} must be at least {least}")
        for key in _SITE_SIZES:
            lo, hi = getattr(self, key)
            if not 2 <= lo <= hi:
                raise ConfigError(
                    f"{_KEYS[key]} must be 'lo hi' with 2 <= lo <= hi")
            if hi > self.n_as:
                raise ConfigError(f"{_KEYS[key]} upper bound {hi} exceeds "
                                  f"{_KEYS['n_as']} {self.n_as}")
        if self.n_prefixes > self.n_as:
            raise ConfigError(f"{_KEYS['n_prefixes']} must be at most "
                              f"{_KEYS['n_as']} {self.n_as}, one origin AS "
                              "each")
        for key, allowed in _NAMES.items():
            given = getattr(self, key)
            unknown = {given} if isinstance(given, str) else set(given)
            unknown -= set(allowed)
            if unknown:
                raise ConfigError(f"unknown {_KEYS[key]}: {sorted(unknown)}; "
                                  f"choose from {', '.join(allowed)}")
        for key in _LISTS:
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{_KEYS[key]} is empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{_KEYS[key]} repeats a value")
        if any(t < 0 for t in self.thresholds):
            raise ConfigError(f"{_KEYS['thresholds']} must be non-negative")
        if any(not 1 <= k <= MAX_ENTRIES for k in self.rule_counts):
            raise ConfigError(f"{_KEYS['rule_counts']} must be from 1 to "
                              f"{MAX_ENTRIES}, the most entries a query takes")
        if any(not math.isfinite(d) or d < 0 for d in self.delays_ms):
            raise ConfigError(
                f"{_KEYS['delays_ms']} must be finite and non-negative")
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

# each config attribute's name as a user writes it: "[section] key"
_KEYS = {attr: f"[{section}] {key}"
         for section, keys in _SCHEMA.items()
         for key, (attr, _) in keys.items()}


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Parse an INI file into a config, or return pure defaults."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    # no knob refers to another, so a '%' is only a character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path), encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
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
                    f"bad value for {_KEYS[attr]}: {raw!r}") from exc
    for attr in _SITE_SIZES:
        if attr in updates and len(updates[attr]) != 2:
            raise ConfigError(f"{_KEYS[attr]} takes exactly two integers")
    return replace(cfg, **updates)


def override(cfg: ExperimentConfig, *, seed: int | None = None,
             out_dir: str | None = None) -> ExperimentConfig:
    """Apply command-line overrides on top of a loaded config."""
    updates = {"seed": seed, "out_dir": out_dir}
    return replace(cfg, **{k: v for k, v in updates.items() if v is not None})
