"""The program's answers, pinned by digest.

Two seeded runs must give exactly the answers they give today:

- the benchmark's churn scenario (``perfbench/gen.py``, scenario seed 1)
  over plaintext queries, plane seed 1: the verdict of every install,
  removal and BGP update of the warm phase and the stream, as (decision,
  reason, ``closed_at``), and the rules active at its end;
- ``prelude effectiveness --seed 1``: its ``effectiveness.csv`` and
  ``effectiveness_events.log``;
- ``prelude pathlen --seed 1``: its ``pathlen.csv``.

Each is pinned by the SHA-256 of its bytes, as the frame test pins
frames.  A digest that moves means the program answers differently, which
no refactor or speed-up may do.  ``perfbench/gen.py`` is loaded from its
file and only read.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from prelude.cli import main
from prelude.control import ControlPlane

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"

CHURN_VERDICTS = \
    "2799a9428d6b3d1c734cf61ea02abf1b10c4af833a25ef198e57dd88cca90bff"
CHURN_ACTIVE = \
    "9a78b57da3d9abc852ab2a7bad1091964600f09b7e8ecb3061470c841a7e220e"
EFFECTIVENESS_CSV = \
    "2487c9de01fcb020d7f17818893f8b9c8e3ad27a3f64c87bb5cbb4cb52e67311"
EFFECTIVENESS_LOG = \
    "8ff48eeadafb594025278dd8351837a2576d2a4453b7e15496719dac038821e0"
PATHLEN_CSV = \
    "e244d56c507ecf20c364cb1908f6bbc3b0c53c96e0254a9d9a9b3ffe9de22ae4"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def churn_scenario():
    spec = importlib.util.spec_from_file_location("_pinned_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen.churn_scenario()


def run_churn(scenario, seed: int = 1):
    """The scenario's warm phase and stream over plaintext queries;
    returns (verdicts, the ids of the rules active at the end)."""
    plane = ControlPlane(scenario.graph, scenario.sites, scenario.ribs,
                         transport="direct", seed=seed)
    verdicts: list = []
    installs: list = []  # (owner, rule id) by install index
    alt = {prefix: 0 for prefix in scenario.ribs}

    def install(policy) -> None:
        verdict = plane.install(policy)
        verdicts.append([verdict.decision, verdict.reason, verdict.closed_at])
        installs.append((policy.owner, verdict.rule_id))

    for policy in scenario.warm:
        install(policy)
    for kind, arg in scenario.events:
        if kind == "install":
            install(arg)
        elif kind == "remove":
            verdicts.append(["removed", plane.remove(*installs[arg])])
        else:
            # BGP updates cycle through the prefix's routing states
            alt[arg] = (alt[arg] + 1) % (len(scenario.alt_ribs[arg]) + 1)
            rib = (scenario.ribs[arg] if alt[arg] == 0
                   else scenario.alt_ribs[arg][alt[arg] - 1])
            for verdict in plane.bgp_update(arg, rib):
                verdicts.append([verdict.decision, verdict.reason,
                                 verdict.closed_at])
    active = sorted(rule_id for node in plane.nodes.values()
                    for rule_id, record in node.registry.items()
                    if record.active)
    return verdicts, active


def test_the_churn_verdicts_are_pinned():
    verdicts, active = run_churn(churn_scenario())
    assert sha256(json.dumps(verdicts).encode()) == CHURN_VERDICTS
    assert sha256(json.dumps(active).encode()) == CHURN_ACTIVE


def test_the_effectiveness_output_is_pinned(tmp_path, capsys):
    assert main(["effectiveness", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / "effectiveness.csv").read_bytes()) \
        == EFFECTIVENESS_CSV
    assert sha256((tmp_path / "effectiveness_events.log").read_bytes()) \
        == EFFECTIVENESS_LOG


def test_the_pathlen_output_is_pinned(tmp_path, capsys):
    assert main(["pathlen", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / "pathlen.csv").read_bytes()) == PATHLEN_CSV
