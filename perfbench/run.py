"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts ``perfbench/workload.py`` for the run itself and, untraced, twice
more with ``--setup-only``, each in its own process; ``setup_s`` is the
median of the three set-ups.  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of BENCHMARK.json, or with ``--trace 1`` every per-layer metric.
Lines before it give each timing's sample count and tail percentile.
Exits non-zero, with no result line, when a workload cannot run or a check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide-table", "wan-table", "install-churn")
SETUP_RUNS = 3
DEADLINE_S = 170  # the whole command, set-up runs included


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child(args, deadline: float, *extra: str) -> dict:
    """Run the workload process; return its JSON, or exit on failure."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: workload process ran past the deadline")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not out.get("correct"):
        sys.exit(f"{args.workload}: workload failed (exit {proc.returncode}): "
                 f"{out.get('error', 'no result')}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    wanted = spec()["per_layer" if args.trace else "end_to_end"]

    out = child(args, deadline)
    if args.trace:
        values = out["layers"]
    else:
        values = dict(out["metrics"])
        setups = [values["setup_s"]]
        setups += [child(args, deadline, "--setup-only")["setup_s"]
                   for _ in range(SETUP_RUNS - 1)]
        values["setup_s"] = statistics.median(setups)
        out["notes"].append("setup_s: " + ", ".join(f"{s:.3f}" for s in setups))

    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        sys.exit(f"metrics printed and declared differ: {sorted(missing)}")
    for note in out["notes"]:
        print(note)
    print(json.dumps({
        "correct": True,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
