"""Benchmark a change against its parent commit in alternating pairs.

    python tools/bench_pairs.py --bench N [--seed 1] [--pairs 10]
        [--out PATH]

Run it before committing the change.  Unpacks a ``git archive`` of
``HEAD`` (the parent) and a copy of this working tree's files (the
change: tracked files, and untracked ones that git does not ignore) side
by side in one temporary directory, so that neither side runs from the
repository itself, and runs ``perfbench/run.py --trace 0`` in each, one
run at a time, for ``BENCHMARK.json``'s ``run_seconds``.  Each workload of
``perfbench/run.py`` gets ``--pairs`` pairs of runs, all with seed
``--seed``; pair i runs the parent first when i is even and the change
first when it is odd, so a drift in the host's speed falls on both sides.
Writes ``BENCH_<N>.json`` at the root of the repository, or the path
``--out`` names: the seed and the pair count, and per workload which side
ran first in each pair, the operations that failed, and per end-to-end
metric of ``BENCHMARK.json`` each side's values by pair, their median and
quartiles, the pairs in which the change was better, and whether the
change's median stays within the metric's bound of the parent's.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    """The median and the inclusive quartiles of ``values``."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def host() -> str:
    """The host a pairs file records: CPUs, machine, system and Python."""
    return (f"{os.cpu_count()}-CPU {platform.machine()} "
            f"{platform.system()}, Python {platform.python_version()}")


def alternate(pairs: int, run, label: str = "") -> tuple[list, list[str]]:
    """``pairs`` pairs of ``run(side)``, pair i running the parent first
    when i is even and the change first when it is odd; returns each
    pair's results by side and the side that ran first in each pair."""
    runs, first = [], []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        runs.append({side: run(side) for side in order})
        print(f"{label}pair {pair + 1}/{pairs} done", file=sys.stderr)
    return runs, first


def result_line(command: list[str], what: str, **kwargs):
    """The JSON object on the last line ``command`` prints; exits naming
    ``what`` if the command fails or prints nothing."""
    proc = subprocess.run(command, capture_output=True, text=True,
                          check=False, **kwargs)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def compare(values: dict[str, list[float]], lower: bool = True) -> dict:
    """Each side's values by pair, their :func:`spread`, and the pairs in
    which the change was better (lower, or higher if not ``lower``)."""
    record = {"values_by_pair": values}
    record.update({side: spread(values[side]) for side in SIDES})
    record["change_better_pairs"] = sum(
        (change < parent) if lower else (change > parent)
        for parent, change in zip(values["parent"], values["change"]))
    return record


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
        record = compare({side: [run[side]["metrics"][name]["value"]
                                 for run in runs] for side in SIDES}, lower)
        parent, change = (record[side]["median"] for side in SIDES)
        record["within_bound"] = (
            change <= parent * (1 + metric["bound"]) if lower
            else change >= parent * (1 - metric["bound"]))
        out["metrics"][name] = record
    return out


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one benchmark run in ``root``."""
    return result_line(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        f"{workload} in {root}", cwd=root)


def unpack(revision: str, into: Path) -> None:
    """Extract ``git archive revision`` into the new directory ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def snapshot(into: Path) -> None:
    """Copy this working tree's files into the new directory ``into``:
    the tracked ones that still exist, and the untracked ones git does
    not ignore."""
    into.mkdir()
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], cwd=ROOT, capture_output=True,
        check=True).stdout.decode()
    for name in dict.fromkeys(filter(None, listed.split("\0"))):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


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
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv[1:])
    seed, pairs = args.seed, args.pairs
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    parent = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    records = []
    with tempfile.TemporaryDirectory() as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        unpack(parent, roots["parent"])
        snapshot(roots["change"])
        for workload in workloads():
            runs, first = alternate(pairs, lambda side: run_once(
                roots[side], workload, seed, seconds), f"{workload} ")
            records.append({"workload": workload, "seed": seed,
                            **summarize(runs, first, metrics)})
    command = (f"python3 perfbench/run.py --workload W --seed {seed} "
               f"--seconds {seconds} --trace 0")
    out = {
        "bench": args.bench,
        "command": command,
        "host": host(),
        "parent": parent,
        "seed": seed,
        "pairs": pairs,
        "method": (f"made by tools/bench_pairs.py: {pairs} pairs of runs "
                   f"per workload, the parent from a git archive of {parent} "
                   f"and the change from a copy of its working tree's "
                   f"tracked and unignored files, side by side in one "
                   f"temporary directory, one run at a time; the side that "
                   f"runs first alternates (first_in_pair). q1 and q3 are "
                   f"statistics.quantiles(n=4, method='inclusive')."),
        "workloads": records,
    }
    path = args.out or ROOT / f"BENCH_{args.bench}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
