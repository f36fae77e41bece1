"""``tools/session_pairs.py`` times sessions in pairs and records them.

The tool copies the working tree's files as git lists them.  The test
that runs it whole gives it a git repository of its own under
``tmp_path`` (:func:`repo`), so it passes where this tree is no checkout,
as in an export by ``git archive``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "session_pairs.py"
# what a run of the tool reads: itself, bench_pairs, the program and the
# benchmark's table and answers
COPIED = ("tools/session_pairs.py", "tools/bench_pairs.py",
          "perfbench/gen.py", "perfbench/overlap.py", "src")


@pytest.fixture
def repo(tmp_path) -> Path:
    """A git repository holding copies of the files :data:`COPIED` names,
    added but not committed, as a working tree's new files are."""
    root = tmp_path / "repo"
    for name in COPIED:
        source, copy = ROOT / name, root / name
        if source.is_dir():
            shutil.copytree(source, copy, ignore=shutil.ignore_patterns(
                "__pycache__", "*.egg-info"))
        else:
            copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, copy)
    for args in (["init", "-q"], ["add", "-A"]):
        subprocess.run(["git", "-C", str(root), *args], check=True,
                       capture_output=True)
    return root


def test_one_pair_of_one_shape_against_the_working_tree(tmp_path, repo):
    # Both sides are this tree, the change side through the fixture
    # repository's copy: one pair of runs of the tool's 200 sessions per
    # backend at width 4 and one entry.
    out = tmp_path / "SESSIONS.json"
    proc = subprocess.run(
        [sys.executable, str(repo / TOOL.relative_to(ROOT)), "--shapes",
         "4x1", "--pairs", "1", "--parent-tree", str(ROOT), "--out",
         str(out)],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["parent"] == str(ROOT)
    assert [(s["width"], s["k"], s["backend"]) for s in record["shapes"]] == [
        (4, 1, "gmw"), (4, 1, "yao")]
    exact = {"gmw": {"and_depth": 2, "online_rounds": 3, "flights": 4,
                     "setup_bytes": 75, "online_bytes": 49},
             "yao": {"and_depth": 1, "online_rounds": 2, "flights": 2,
                     "setup_bytes": 249, "online_bytes": 224}}
    for shape in record["shapes"]:
        assert shape["pairs"] == 1 and shape["sessions_per_run"] == 200
        assert shape["first_in_pair"] == ["parent"]
        ms = shape["ms"]
        for side in ("parent", "change"):
            (value,) = ms["values_by_pair"][side]
            assert value > 0
            assert ms[side] == {"median": value, "q1": value, "q3": value}
        assert ms["change_better_pairs"] in (0, 1)
        counters = shape["counters"]
        assert counters["parent"] == counters["change"] == exact[
            shape["backend"]]
        assert counters["equal"]
    assert "4x1" in proc.stdout and str(out) in proc.stdout


def faked(monkeypatch, tmp_path, pairs: int, speeds):
    """Run the tool over faked runs of the shapes 104x5 and 4x8, in which
    the change takes 0.8 of the parent's gmw time at 104x5 and 1.25 of
    its yao time at 4x8, at the host's speed ``speeds[i]`` in pair i.
    Returns the record it wrote and each run's side and shapes."""
    spec = importlib.util.spec_from_file_location("session_pairs", TOOL)
    session_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(session_pairs)
    counters = {name: 1 for name in session_pairs.COUNTERS}
    times = {"parent": {(104, 5): (1.0, 2.0), (4, 8): (0.5, 0.8)},
             "change": {(104, 5): (0.8, 2.0), (4, 8): (0.5, 1.0)}}
    calls = []

    def run_once(root, shapes):
        scale = speeds[len(calls) // 2]  # two runs a pair
        calls.append((root.name, shapes))
        return [{backend: {"ms": scale * ms, "counters": counters}
                 for backend, ms in zip(("gmw", "yao"),
                                        times[root.name][shape])}
                for shape in shapes]

    monkeypatch.setattr(session_pairs, "run_once", run_once)
    monkeypatch.setattr(session_pairs.bench_pairs, "snapshot",
                        lambda into: None)
    out = tmp_path / "SESSIONS.json"
    assert session_pairs.main([
        "session_pairs.py", "--shapes", "104x5,4x8", "--pairs", str(pairs),
        "--parent-tree", str(tmp_path / "parent"), "--out", str(out)]) == 0
    return json.loads(out.read_text()), calls


def test_each_run_times_the_whole_grid_and_the_sides_alternate(
        monkeypatch, tmp_path):
    # A run is one side's over every shape; the parent runs first in even
    # pairs and the change in odd ones.  An A/A run that ran each shape's
    # two runs back to back instead, one process a shape, did not narrow
    # the ratio's quartiles at width 4 (CHANGES.md), so a run stays whole.
    record, calls = faked(monkeypatch, tmp_path, 2, [1.0, 2.0])
    grid = [(104, 5), (4, 8)]
    assert calls == [("parent", grid), ("change", grid), ("change", grid),
                     ("parent", grid)]
    for shape in record["shapes"]:
        assert shape["first_in_pair"] == ["parent", "change"]


def test_the_json_holds_each_shape_per_pair_ratio(monkeypatch, tmp_path):
    # Faked runs over three pairs at the host's speeds 1, 2 and 0.5.
    record, _ = faked(monkeypatch, tmp_path, 3, [1.0, 2.0, 0.5])
    ratios = {(s["width"], s["k"], s["backend"]): s["ms"]["ratio"]
              for s in record["shapes"]}
    assert ratios[104, 5, "gmw"]["by_pair"] == pytest.approx([0.8] * 3)
    assert ratios[104, 5, "gmw"]["median"] == pytest.approx(0.8)
    assert ratios[4, 8, "yao"] == pytest.approx(
        {"by_pair": [1.25] * 3, "median": 1.25, "q1": 1.25, "q3": 1.25})
    assert ratios[104, 5, "yao"]["median"] == ratios[4, 8, "gmw"][
        "median"] == 1.0
    # the keys the layout had before the ratio came
    for shape in record["shapes"]:
        assert {"values_by_pair", "parent", "change",
                "change_better_pairs"} < set(shape["ms"])
