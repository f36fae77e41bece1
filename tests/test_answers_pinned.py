"""The program's answers, pinned by digest.

Two seeded runs must give exactly the answers they give today:

- the benchmark's churn scenario (``perfbench/gen.py``, scenario seed 1)
  replayed over plaintext queries, plane seed 1, by the benchmark's own
  ``ChurnRunner``: the verdict of every install, removal and BGP update of
  the warm phase and the stream, as (decision, reason, ``closed_at``), and
  the rules active at its end, and the line of every event in the plane's
  log, in order;
- ``prelude effectiveness --seed 1``: its ``effectiveness.csv`` and
  ``effectiveness_events.log``;
- ``prelude pathlen --seed 1``: its ``pathlen.csv``.

Each is pinned by the SHA-256 of its bytes, as the frame test pins
frames.  A digest that moves means the program answers differently, which
no refactor or speed-up may do.  ``perfbench/workload.py`` is loaded
from its file and only read, so these pins hold the replay the benchmark
measures.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from prelude.cli import main

WORKLOAD = (Path(__file__).resolve().parent.parent / "perfbench"
            / "workload.py")

CHURN_VERDICTS = \
    "2799a9428d6b3d1c734cf61ea02abf1b10c4af833a25ef198e57dd88cca90bff"
CHURN_ACTIVE = \
    "9a78b57da3d9abc852ab2a7bad1091964600f09b7e8ecb3061470c841a7e220e"
CHURN_EVENTS = \
    "2db1d2939fc941e29192d65d81009d45ac669a22ab7ef20e1c2787f124efd9bd"
EFFECTIVENESS_CSV = \
    "2487c9de01fcb020d7f17818893f8b9c8e3ad27a3f64c87bb5cbb4cb52e67311"
EFFECTIVENESS_LOG = \
    "8ff48eeadafb594025278dd8351837a2576d2a4453b7e15496719dac038821e0"
PATHLEN_CSV = \
    "e244d56c507ecf20c364cb1908f6bbc3b0c53c96e0254a9d9a9b3ffe9de22ae4"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the benchmark's install-churn module; it imports its neighbours ``gen``,
# ``overlap`` and ``pace`` from ``perfbench/``
_spec = importlib.util.spec_from_file_location("_pinned_workload", WORKLOAD)
workload = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workload)


def test_the_churn_verdicts_are_pinned():
    scenario = workload.gen.churn_scenario()
    runner = workload.ChurnRunner(scenario, "direct", 1)
    for policy in scenario.warm:
        runner.install(policy)
    for event in scenario.events:
        runner.apply(event)
    assert sha256(json.dumps(runner.verdicts).encode()) == CHURN_VERDICTS
    assert sha256(json.dumps(sorted(runner.active_ids())).encode()) \
        == CHURN_ACTIVE
    log = "\n".join(event.line() for event in runner.plane.events)
    assert sha256(log.encode()) == CHURN_EVENTS


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
