"""Time query sessions of a change against its parent in alternating pairs.

    python tools/session_pairs.py --bench N [--shapes 104x5,4x8]
        [--pairs 10] [--parent REV | --parent-tree DIR]

Each shape is a rule width and a table size k, ``WxK``; the default is the
grid of widths 104 and 4 and k in 1, 8, 50 and 500.  A shape's table and
queries are ``perfbench/gen.py``'s, seeded, from this working tree, so
both sides answer the same queries.  Each run is one subprocess that runs
every shape on both backends over a ``LoopbackEndpoint`` with no delay,
interleaving the backends query by query, and times each whole session:
200 per shape and backend, fewer for big tables (:func:`shape_sessions`),
the same in every run, so every such file is made the same way.
The parent is a ``git archive`` of ``REV`` (default ``HEAD``) unpacked in
a temporary directory, or the tree ``DIR``; the change is a copy of this
working tree's files, tracked and untracked but not ignored, in the same
temporary directory, so it never runs from the repository itself.  Both
sides still read ``perfbench/gen.py`` from this working tree.  Pair i
runs the parent first when i is even and the change first when it is
odd, so a drift in the host's speed falls on both sides.

Writes ``SESSIONS_<N>.json`` at the root of the repository, or the path
``--out`` names: per shape and backend, each side's median session time
by pair, their median and quartiles, the pairs in which the change was
faster, and each side's exact counters (AND depth, online rounds,
flights, setup and online bytes), which must be the same for every
session of a shape and side.  Nothing is written under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GRID = tuple((w, k) for w in (104, 4) for k in (1, 8, 50, 500))
BACKENDS = ("gmw", "yao")
COUNTERS = ("and_depth", "online_rounds", "flights", "setup_bytes",
            "online_bytes")
SEED = 1
SESSIONS = 200  # timed per shape and backend, up to k=100


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")
SIDES = bench_pairs.SIDES


def shape_sessions(k: int) -> int:
    """Timed sessions per backend at table size ``k``: fewer for big
    tables, 40 at k=500."""
    return max(1, min(SESSIONS, SESSIONS * 100 // k))


def time_shape(width: int, k: int) -> dict:
    """One run's sessions of a shape: per backend, the median session time
    in ms and the exact counters, which every session must repeat.

    Imports the program on ``sys.path``, which the worker sets up.
    """
    from prelude.distinct_match import (
        LoopbackEndpoint,
        NextHopId,
        RuleEntry,
        SdxMatchService,
    )
    from prelude.rules import TernaryRule

    gen = _load("perfbench_gen", ROOT / "perfbench" / "gen.py")
    overlap = _load("perfbench_overlap", ROOT / "perfbench" / "overlap.py")
    table = gen.holder_table(SEED, k, width)
    service = SdxMatchService(gen.HOLDER_SDX)
    for i, (pattern, mask, hop) in enumerate(table):
        service.register(RuleEntry(
            rule=TernaryRule(width, pattern, mask),
            next_hop=NextHopId(*hop), owner=100 + i, prefix=gen.PREFIX))
    endpoint = LoopbackEndpoint(service, seed=SEED)
    times: dict[str, list[float]] = {b: [] for b in BACKENDS}
    counters: dict[str, dict] = {}
    for index in range(shape_sessions(k) + 1):  # query 0 warms up
        pattern, mask = gen.query_rule(SEED, k, index, table, width)
        rule = TernaryRule(width, pattern, mask)
        want = overlap.expected_hops((pattern, mask), table)
        for backend in BACKENDS:
            stats: list = []
            start = perf_counter()
            result = endpoint.query(rule, gen.PREFIX, backend,
                                    stats_out=stats)
            took = perf_counter() - start
            got = {(h.sdx_id, h.as_id) for h in result.hops}
            if got != want:
                raise AssertionError(f"{backend} {width}x{k} query {index}: "
                                     f"{sorted(got)} != {sorted(want)}")
            seen = {name: getattr(stats[0], name) for name in COUNTERS}
            if counters.setdefault(backend, seen) != seen:
                raise AssertionError(f"{backend} {width}x{k} counters moved "
                                     f"between sessions: {counters[backend]}"
                                     f" then {seen}")
            if index:
                times[backend].append(1000 * took)
    return {b: {"ms": statistics.median(times[b]), "counters": counters[b]}
            for b in BACKENDS}


def worker(root: Path, shapes: list[tuple[int, int]]) -> None:
    """Print one JSON line: every shape's :func:`time_shape` in ``root``."""
    sys.path.insert(0, str(root / "src"))
    out = [time_shape(w, k) for w, k in shapes]
    print(json.dumps(out))


def run_once(root: Path, shapes: list[tuple[int, int]]) -> list[dict]:
    """One side's run of every shape, in a fresh process."""
    spec = ",".join(f"{w}x{k}" for w, k in shapes)
    return bench_pairs.result_line(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(root), "--shapes", spec], f"sessions in {root}",
        env={**os.environ, "PYTHONPATH": ""})


def summarize(runs: list[dict], first_in_pair: list[str],
              shapes: list[tuple[int, int]]) -> list[dict]:
    """One record per shape and backend from the pairs of runs.

    ``runs[i]`` maps each side to its run's list of shape results.
    """
    records = []
    for at, (width, k) in enumerate(shapes):
        for backend in BACKENDS:
            ms = {side: [run[side][at][backend]["ms"] for run in runs]
                  for side in SIDES}
            counters = {side: runs[0][side][at][backend]["counters"]
                        for side in SIDES}
            for run in runs:
                for side in SIDES:
                    if run[side][at][backend]["counters"] != counters[side]:
                        raise AssertionError(
                            f"{backend} {width}x{k}: {side} counters moved "
                            f"between runs")
            record = {"width": width, "k": k, "backend": backend,
                      "sessions_per_run": shape_sessions(k),
                      "pairs": len(runs), "first_in_pair": first_in_pair,
                      "ms": bench_pairs.compare(ms)}
            record["counters"] = {**counters, "equal": (
                counters["parent"] == counters["change"])}
            records.append(record)
    return records


def parse_shapes(text: str) -> list[tuple[int, int]]:
    """``"104x5,4x8"`` as [(104, 5), (4, 8)]."""
    shapes = []
    for item in text.split(","):
        width, _, k = item.partition("x")
        shapes.append((int(width), int(k)))
    return shapes


def table(records: list[dict]) -> str:
    """The records as text, one line per shape and backend."""
    lines = [f"{'shape':>10} {'backend':>7} {'parent ms':>24} "
             f"{'change ms':>24} won  depth/rounds/flights setup/online B"]
    for r in records:
        ms, c = r["ms"], r["counters"]["change"]
        side = {s: f"{ms[s]['median']:.3f} [{ms[s]['q1']:.3f}-"
                   f"{ms[s]['q3']:.3f}]" for s in SIDES}
        lines.append(
            f"{r['width']:>5}x{r['k']:<4} {r['backend']:>7} "
            f"{side['parent']:>24} {side['change']:>24} "
            f"{ms['change_better_pairs']:>2}/{r['pairs']:<2} "
            f"{c['and_depth']}/{c['online_rounds']}/{c['flights']:<14} "
            f"{c['setup_bytes']}/{c['online_bytes']}"
            + ("" if r["counters"]["equal"] else "  counters differ"))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=int)
    parser.add_argument("--shapes", type=parse_shapes, default=list(GRID))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--parent-tree", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    if args.worker:
        worker(args.worker, args.shapes)
        return 0
    if args.out is None and args.bench is None:
        parser.error("give --bench N or --out PATH")
    out_path = args.out or ROOT / f"SESSIONS_{args.bench}.json"
    with tempfile.TemporaryDirectory() as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        if args.parent_tree:
            roots["parent"] = args.parent_tree.resolve()
            parent = str(roots["parent"])
        else:
            parent = subprocess.run(
                ["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                capture_output=True, text=True, check=True).stdout.strip()
            bench_pairs.unpack(parent, roots["parent"])
        bench_pairs.snapshot(roots["change"])
        runs, first = bench_pairs.alternate(
            args.pairs, lambda side: run_once(roots[side], args.shapes))
    records = summarize(runs, first, args.shapes)
    out = {
        "bench": args.bench,
        "host": bench_pairs.host(),
        "parent": parent,
        "method": (f"made by tools/session_pairs.py: {args.pairs} pairs of "
                   f"runs, the parent from {parent} and the change from a "
                   f"copy of its working tree's tracked and unignored "
                   f"files, one subprocess per run; the side that "
                   f"runs first alternates (first_in_pair). Each run times "
                   f"sessions_per_run LoopbackEndpoint sessions per shape "
                   f"and backend, after one warm-up, on perfbench/gen.py's "
                   f"seed-{SEED} table and queries, the backends interleaved "
                   f"query by query; a pair's value is each run's median. "
                   f"q1 and q3 are statistics.quantiles(n=4, "
                   f"method='inclusive')."),
        "shapes": records,
    }
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    print(table(records))
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
