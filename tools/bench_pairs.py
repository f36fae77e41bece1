"""Benchmark a change against its parent commit in alternating pairs.

    python tools/bench_pairs.py --bench N

Run it before committing the change.  Unpacks a ``git archive`` of
``HEAD`` (the parent) in a temporary directory and runs
``perfbench/run.py --trace 0`` there and in this working tree, one run at
a time, for ``BENCHMARK.json``'s ``run_seconds``.  Each workload of
``perfbench/run.py`` gets ten pairs of runs, all with seed 1; pair i runs
the parent first when i is even and the change first when it is odd, so a
drift in the host's speed falls on both sides.  Writes ``BENCH_<N>.json``
at the root of the repository: per workload, which side ran first in each
pair, the operations that failed, and per end-to-end metric of
``BENCHMARK.json`` each side's values by pair, their median and
quartiles, the pairs in which the change was better, and whether the
change's median stays within the metric's bound of the parent's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1
SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """The median and the inclusive quartiles of ``values``."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], first_in_pair: list[str],
              metrics: list[dict]) -> dict:
    """One workload's record from its pairs of results.

    ``runs[i]`` maps each side to the result line of its run in pair i,
    and ``metrics`` are the end-to-end metrics of ``BENCHMARK.json``.
    """
    out = {"pairs": len(runs), "first_in_pair": first_in_pair,
           "failed": {side: [run[side]["failed"] for run in runs]
                      for side in SIDES},
           "metrics": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in SIDES}
        record = {"values_by_pair": values}
        record.update({side: spread(values[side]) for side in SIDES})
        record["change_better_pairs"] = sum(
            (change < parent) if lower else (change > parent)
            for parent, change in zip(values["parent"], values["change"]))
        parent, change = (record[side]["median"] for side in SIDES)
        record["within_bound"] = (
            change <= parent * (1 + metric["bound"]) if lower
            else change >= parent * (1 - metric["bound"]))
        out["metrics"][name] = record
    return out


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one benchmark run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} in {root}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(lines[-1])


def unpack(revision: str, into: Path) -> None:
    """Extract ``git archive revision`` into the directory ``into``."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def workloads() -> tuple[str, ...]:
    """The workloads ``perfbench/run.py`` runs."""
    path = ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=int, required=True)
    args = parser.parse_args(argv[1:])
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    parent = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    records = []
    with tempfile.TemporaryDirectory() as scratch:
        roots = {"parent": Path(scratch), "change": ROOT}
        unpack(parent, roots["parent"])
        for workload in workloads():
            runs, first = [], []
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                runs.append({side: run_once(roots[side], workload, SEED,
                                            seconds)
                             for side in order})
                print(f"{workload} pair {pair + 1}/{PAIRS} done",
                      file=sys.stderr)
            records.append({"workload": workload, "seed": SEED,
                            **summarize(runs, first, metrics)})
    command = (f"python3 perfbench/run.py --workload W --seed {SEED} "
               f"--seconds {seconds} --trace 0")
    out = {
        "bench": args.bench,
        "command": command,
        "host": (f"{os.cpu_count()}-CPU {platform.machine()} "
                 f"{platform.system()}, Python {platform.python_version()}"),
        "parent": parent,
        "method": (f"made by tools/bench_pairs.py: {PAIRS} pairs of runs "
                   f"per workload, the parent from a git archive of {parent} "
                   f"and the change from its working tree, one run at a "
                   f"time; the side that runs first alternates "
                   f"(first_in_pair). q1 and q3 are statistics.quantiles("
                   f"n=4, method='inclusive')."),
        "workloads": records,
    }
    path = ROOT / f"BENCH_{args.bench}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
