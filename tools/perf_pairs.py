#!/usr/bin/env python3
"""Alternated A/B runs of the benchmark on two checkouts.

    python3 tools/perf_pairs.py PARENT CHANGE [--workload W ...] [--pairs 10] [--seed S ...]

PARENT and CHANGE are the roots of two checkouts.  `--workload` and
`--seed` may each be given more than once; without `--workload` every
workload named in CHANGE's BENCHMARK.json runs, and without `--seed` seed
1.  The workloads run one after another at the first seed, then again at
the next, each with its own table.  Each pair runs
`python3 perfbench/run.py --workload W --seed S --trace 0` once in each,
the parent first in even pairs and the change first in odd ones, and every
`__pycache__` under both checkouts is deleted before each run, so no run
reads bytecode compiled from another source or by the other side's run.
The script exits 1 on any run that fails, is not `correct` or has `failed`
above 0.  Otherwise it prints, per seed, workload and end-to-end metric, the
medians of both sides, their ratio change/parent, the parent's
interquartile range and in how many pairs the change read lower, then,
under the last table, the lines and bytes of both checkouts'
`src/convcode/*.py` (what `wc -l` and `wc -c` count), and exits 0.  It
uses the standard library alone and imports nothing from the checkouts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys


def clear_bytecode(root: str) -> None:
    """Delete every __pycache__ directory under `root`."""
    for top, dirs, _ in os.walk(root):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(top, "__pycache__"))
            dirs.remove("__pycache__")


def run(root: str, workload: str, seed: int) -> dict:
    """The metrics of one benchmark run in `root`; exits 1 unless it is correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or not result or not result["correct"] or result["failed"]:
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"run in {root} failed: exit {proc.returncode}, result {result}")
    return {name: value["value"] for name, value in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(parent: list[dict], change: list[dict]) -> list[str]:
    """The table of one workload's pairs, a line per end-to-end metric of the
    parent's runs: both medians, change/parent, the parent's IQR and the
    pairs in which the change read lower."""
    lines = [f"{'metric':<16} {'parent':>12} {'change':>12} {'ratio':>7} {'parent IQR':>12} {'change lower':>13}"]
    for name in parent[0]:  # the end-to-end metrics run.py reports
        old = [m[name] for m in parent]
        new = [m[name] for m in change]
        q1, q3 = quartiles(old)
        wins = sum(b < a for a, b in zip(old, new))
        before, after = statistics.median(old), statistics.median(new)
        ratio = f"{after / before:7.3f}" if before else f"{'-':>7}"
        lines.append(f"{name:<16} {before:12.4f} {after:12.4f} {ratio} "
                     f"{q3 - q1:12.4f} {wins:>9}/{len(parent)}")
    return lines


def source_size(root: str) -> str:
    """'<lines> lines, <bytes> bytes' of the .py files in root/src/convcode."""
    package = os.path.join(root, "src", "convcode")
    lines = size = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                data = fh.read()
            lines, size = lines + data.count(b"\n"), size + len(data)
    return f"{lines} lines, {size} bytes"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, action="append", help="repeatable; default: 1")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")
    if not args.workload:
        with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.workload = [w["name"] for w in json.load(fh)["workloads"]]
    for seed, workload in itertools.product(args.seed or [1], args.workload):
        sides = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                for checkout in (args.parent, args.change):
                    clear_bytecode(checkout)
                sides[side].append(run(getattr(args, side), workload, seed))
            print(f"# {workload} seed {seed}: pair {pair + 1}/{args.pairs} done, {order[0]} first", flush=True)
        print(f"{workload} seed {seed}, {args.pairs} alternated pairs")
        print("\n".join(summary(sides["parent"], sides["change"])), flush=True)
    print(f"src/convcode: parent {source_size(args.parent)}, change {source_size(args.change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
