"""``tools/bench_pairs.py`` summarizes pairs of benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


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
    monkeypatch.setattr(bench_pairs, "workloads", lambda: ("a", "b"))
    assert bench_pairs.main(["bench_pairs.py", "--bench", "7", *options,
                             "--out", str(out)]) == 0
    return json.loads(out.read_text()), seeds


def test_the_options_set_the_seed_pairs_and_path(monkeypatch, tmp_path):
    record, seeds = fake_main(monkeypatch, tmp_path / "bench.json",
                              "--seed", "3", "--pairs", "2")
    assert (record["bench"], record["seed"], record["pairs"]) == (7, 3, 2)
    assert "--seed 3" in record["command"]
    assert seeds == [3] * 8  # two workloads, two pairs, two sides
    for workload in record["workloads"]:
        assert (workload["seed"], workload["pairs"]) == (3, 2)
        assert workload["first_in_pair"] == ["parent", "change"]


def test_the_defaults_are_seed_1_and_ten_pairs(monkeypatch, tmp_path):
    record, seeds = fake_main(monkeypatch, tmp_path / "bench.json")
    assert (record["seed"], record["pairs"]) == (1, 10)
    assert seeds == [1] * 40
