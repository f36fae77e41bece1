"""``tools/bench_pairs.py`` summarizes pairs of benchmark runs.

The tool reads git: the parent's commit, its archive, and the files of
the working tree.  The tests that run ``main`` give it a repository of
its own under ``tmp_path`` (:func:`repo`), so they pass where this tree is
no checkout, as in an export by ``git archive``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
TREE = TOOL.parent.parent
HERE = Path(__file__).resolve().relative_to(TREE)

METRICS = [{"name": "op_ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


@pytest.fixture
def repo(tmp_path, monkeypatch) -> Path:
    """A git repository of one commit, holding this tree's
    ``BENCHMARK.json`` and this test, which the tool takes as its root."""
    root = tmp_path / "repo"
    (root / HERE).parent.mkdir(parents=True)
    for name in (Path("BENCHMARK.json"), HERE):
        shutil.copy2(TREE / name, root / name)
    git = ["git", "-C", str(root), "-c", "user.name=bench",
           "-c", "user.email=bench@example.invalid", "-c",
           "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"],
                 ["commit", "-q", "-m", "fixture"]):
        subprocess.run(git + args, check=True, capture_output=True)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    return root


def result(op_ms: float, ops_per_s: float, failed: int = 0) -> dict:
    """A run's result line with the two metrics above."""
    return {"correct": True, "failed": failed,
            "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
                        "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}}


def test_the_summary_keeps_pair_order_and_counts_better_pairs():
    runs = [{"parent": result(p, 1000 / p), "change": result(c, 1000 / c, f)}
            for p, c, f in ((10, 4, 0), (12, 6, 1), (8, 9, 0), (11, 5, 0))]
    first = ["parent", "change", "parent", "change"]
    out = bench_pairs.summarize(runs, first, METRICS)
    assert out["pairs"] == 4
    assert out["first_in_pair"] == first
    assert out["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 1, 0, 0]}
    op = out["metrics"]["op_ms"]
    assert op["values_by_pair"] == {"parent": [10, 12, 8, 11],
                                    "change": [4, 6, 9, 5]}
    # statistics.quantiles(n=4, method="inclusive") of 8, 10, 11, 12
    assert op["parent"] == {"median": 10.5, "q1": 9.5, "q3": 11.25}
    assert op["change"]["median"] == 5.5
    assert op["change_better_pairs"] == 3
    assert op["within_bound"]
    assert op["ratio"]["by_pair"] == [0.4, 0.5, 9 / 8, 5 / 11]
    speed = out["metrics"]["ops_per_s"]
    assert speed["change_better_pairs"] == 3
    assert speed["within_bound"]


def test_a_metric_past_its_bound_is_marked():
    runs = [{"parent": result(10, 100), "change": result(13, 70)}]
    out = bench_pairs.summarize(runs, ["parent"], METRICS)
    assert out["metrics"]["op_ms"]["parent"] == {"median": 10, "q1": 10,
                                                 "q3": 10}
    assert not out["metrics"]["op_ms"]["within_bound"]
    assert not out["metrics"]["ops_per_s"]["within_bound"]
    assert out["metrics"]["op_ms"]["change_better_pairs"] == 0


def fake_main(monkeypatch, out, *options) -> tuple[dict, list[int]]:
    """The record ``main`` writes to ``out`` for ``options`` when every
    run returns one fixed line, over two workloads, and the seed of each
    run."""
    seeds = []
    names = [m["name"] for m in json.loads(
        (TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    line = {"correct": True, "failed": 0,
            "metrics": {name: {"value": 1.0} for name in names}}

    def run_once(root, workload, seed, seconds):
        seeds.append(seed)
        return line

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "unpack", lambda revision, into: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda into: None)
    monkeypatch.setattr(bench_pairs, "workloads", lambda: ("a", "b"))
    assert bench_pairs.main(["bench_pairs.py", "--bench", "7", *options,
                             "--out", str(out)]) == 0
    return json.loads(out.read_text()), seeds


def test_the_options_set_the_seed_pairs_and_path(monkeypatch, tmp_path,
                                                  repo):
    record, seeds = fake_main(monkeypatch, tmp_path / "bench.json",
                              "--seed", "3", "--pairs", "2")
    assert (record["bench"], record["seed"], record["pairs"]) == (7, 3, 2)
    assert "--seed 3" in record["command"]
    assert seeds == [3] * 8  # two workloads, two pairs, two sides
    for workload in record["workloads"]:
        assert (workload["seed"], workload["pairs"]) == (3, 2)
        assert workload["first_in_pair"] == ["parent", "change"]


def test_the_defaults_are_seed_1_and_ten_pairs(monkeypatch, tmp_path, repo):
    record, seeds = fake_main(monkeypatch, tmp_path / "bench.json")
    assert (record["seed"], record["pairs"]) == (1, 10)
    assert seeds == [1] * 40


def test_neither_side_runs_from_the_repository(monkeypatch, tmp_path,
                                                repo):
    # The parent's archive and the change's copy of the fixture repository
    # are unpacked for real; only the benchmark runs are faked, each noting
    # where it ran and whether that directory holds this tree's copy of
    # this test.
    root, here = TREE, HERE
    ran = {}
    line = {"correct": True, "failed": 0, "metrics": {
        m["name"]: {"value": 1.0} for m in json.loads(
            (root / "BENCHMARK.json").read_text())["end_to_end"]}}

    def run_once(at, workload, seed, seconds):
        copy = at / here
        ran[at] = copy.is_file() and copy.read_bytes() == (
            root / here).read_bytes()
        return line

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "workloads", lambda: ("a",))
    assert bench_pairs.main(["bench_pairs.py", "--bench", "7", "--pairs",
                             "1", "--out", str(tmp_path / "b.json")]) == 0
    assert len(ran) == 2
    for at in ran:
        assert root != at and root not in at.parents
        assert repo != at and repo not in at.parents
    parent, change = ran  # the one pair runs the parent first
    assert parent.parent == change.parent
    assert ran[change]  # the change runs this tree's files


def test_the_json_holds_each_metric_per_pair_ratio(monkeypatch, tmp_path,
                                                    repo):
    # Faked runs: the change's op_ms is half the parent's in the first pair
    # and three quarters in the second, and ops_per_s the inverse.
    names = [m["name"] for m in json.loads(
        (TREE / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {"parent": iter([10.0, 10.0, 10.0, 10.0]),
            "change": iter([5.0, 7.5, 5.0, 7.5])}

    def run_once(root, workload, seed, seconds):
        value = next(runs[root.name])
        metrics = {name: {"value": 1.0} for name in names}
        metrics["op_ms"] = {"value": value}
        metrics["ops_per_s"] = {"value": 1000 / value}
        return {"correct": True, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "unpack", lambda revision, into: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda into: None)
    monkeypatch.setattr(bench_pairs, "workloads", lambda: ("a", "b"))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["bench_pairs.py", "--bench", "7", "--pairs",
                             "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    (workload,) = [w for w in record["workloads"] if w["workload"] == "a"]
    metrics = workload["metrics"]
    assert metrics["op_ms"]["ratio"] == {"by_pair": [0.5, 0.75],
                                         "median": 0.625, "q1": 0.5625,
                                         "q3": 0.6875}
    assert metrics["ops_per_s"]["ratio"]["by_pair"] == pytest.approx(
        [2.0, 10 / 7.5])
    assert metrics["setup_s"]["ratio"]["median"] == 1.0
    # the keys the layout had before the ratio came
    assert {"values_by_pair", "parent", "change", "change_better_pairs",
            "within_bound"} < set(metrics["op_ms"])
