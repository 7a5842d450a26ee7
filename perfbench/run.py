#!/usr/bin/env python3
"""Benchmark of the convcode command line, run in-process.

    python3 perfbench/run.py --workload spectrum-batch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The corpus is generated from the seed
(not timed), then each item is one call of `convcode.cli.main(argv)` with
stdout captured: one caller, one item at a time (closed loop, one thread).
Exactly one pass over the corpus is timed, with a reference probe after
every item; the corpus is sized so that the pass takes about 30 s on a
2-CPU host, and the reported times are in reference seconds (see
refprobe.py).  Outputs are checked after the timed pass.  With `--trace 1`
the pass calls each item untraced and then traced, and reports the
per-layer metrics instead of the end-to-end ones.  The last stdout line is
the JSON result; see README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
SETUP_SAMPLES = 9

import checks  # noqa: E402  (the benchmark's own modules sit next to this file)
import codes  # noqa: E402
import workloads  # noqa: E402
from refprobe import REF_PROBE_S, probe  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from refprobe import probe\n"
    "before = probe()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import convcode.cli\n"
    "d = time.perf_counter() - t\n"
    "print(repr(d), repr((before + probe()) / 2), convcode.__file__)\n"
)


def _under_src(path: str) -> bool:
    return os.path.abspath(path).startswith(os.path.join(SRC, "convcode") + os.sep)


def import_convcode():
    """The package from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "convcode", "cli.py")):
        raise SystemExit(f"perfbench: no convcode sources under {SRC}")
    sys.path.insert(0, SRC)
    import convcode
    import convcode.cli

    if not _under_src(convcode.__file__):
        raise SystemExit(f"perfbench: imported convcode from {convcode.__file__}, not {SRC}")
    return convcode


def setup_seconds() -> list[tuple[float, float]]:
    """(seconds, mean probe) of `import convcode.cli` in fresh interpreters,
    each import between two probes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or not _under_src(fields[2]):
            raise SystemExit(f"perfbench: import probe failed: {proc.stderr.strip()}")
        samples.append((float(fields[0]), float(fields[1])))
    return samples


def call(cli, argv):
    """One item: (seconds, exit code, stdout, stderr).  The garbage of earlier
    items is collected first, untimed, as a fresh CLI process would start
    with an empty heap."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an item that raises is a failed item, not a dead run
        rc = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_pass(cli, items):
    """(wall, item times, results, probes): a probe before the first item
    and after every item; wall is the sum of the item times."""
    times, results, probes = [], [], [probe()]
    for item in items:
        dt, rc, out, err = call(cli, item.argv)
        times.append(dt)
        results.append((rc, out, err))
        probes.append(probe())
    return sum(times), times, results, probes


def reference_times(times, probes):
    """Each item time in reference seconds: scaled by REF_PROBE_S over the
    median of the (up to four) probes taken around it."""
    return [
        t * REF_PROBE_S / statistics.median(probes[max(0, i - 1): i + 3])
        for i, t in enumerate(times)
    ]


def run_paired_pass(cli, items, tracer):
    """Each item untraced, then traced: per-item pairs cancel slow drift in
    the machine, so the difference of the sums is the tracing overhead.
    (wall, item times, results) of the untraced and of the traced calls."""
    plain, traced = ([], []), ([], [])
    for item in items:
        dt, rc, out, err = call(cli, item.argv)
        plain[0].append(dt)
        plain[1].append((rc, out, err))
        tracer.item = item.name
        tracer.install()
        try:
            dt, rc, out, err = call(cli, item.argv)
        finally:
            tracer.uninstall()
        traced[0].append(dt)
        traced[1].append((rc, out, err))
    return (sum(plain[0]), *plain), (sum(traced[0]), *traced)


class Checker:
    """Per-item checks with the oracle tallies, Phi coefficients and
    adjacency dicts cached."""

    def __init__(self, workload: str, oracle, parse_gm):
        self.workload = workload
        self.oracle = oracle
        self.parse_gm = parse_gm
        self._cache: dict[tuple[str, str], object] = {}

    def _oracle_tables(self, item):
        key = ("oracle", item.name)
        if key not in self._cache:
            g = self.parse_gm(item.facts["gm"])
            res = self.oracle.survey(g, item.facts["oracle_length"], budget=workloads.ORACLE_WORDS)
            self._cache[key] = (res.atomic, res.molecular)
        return self._cache[key]

    def _phi_coeffs(self, item):
        key = ("phi", item.name)
        if key not in self._cache:
            adj = codes.adjacency(item.facts["code"])
            self._cache[key] = codes.phi_coeffs(adj, item.facts["trunc"])
        return self._cache[key]

    def _adjacencies(self, item):
        key = ("adjacency", item.name)
        if key not in self._cache:
            self._cache[key] = tuple(codes.adjacency(c) for c in item.facts["codes"])
        return self._cache[key]

    def __call__(self, item, rc, out):
        if self.workload == "spectrum-batch":
            return checks.check_spectrum(item, rc, out, self._oracle_tables, self._phi_coeffs)
        if self.workload == "diagram-screen":
            return checks.check_diagram(item, rc, out)
        return checks.check_equal(item, rc, out, self._adjacencies)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    total = tracer.total_times()
    selfs = tracer.self_times()
    counts = tracer.counts
    s = lambda name: total.get(name, 0.0)
    cells = counts["spectrum.adjacency.cells"]
    metrics = {
        "spectrum.phi_series.s": (s("spectrum.phi_series"), "s"),
        "spectrum.row_iterate.s": (s("spectrum.row_iterate"), "s"),
        "spectrum.row_iterate.calls": (counts["spectrum.row_iterate.calls"], "count"),
        "spectrum.adjacency.s": (s("spectrum.adjacency"), "s"),
        "spectrum.adjacency.cells": (cells, "count"),
        "spectrum.adjacency.nonzero_cells": (counts["spectrum.adjacency.nonzero_cells"], "count"),
        "spectrum.adjacency.nonzero_share": (
            counts["spectrum.adjacency.nonzero_cells"] / cells if cells else 0.0, "ratio"),
        "spectrum.omega_series.s": (s("spectrum.omega_series"), "s"),
        "spectrum.series_terms": (counts["spectrum.series_terms"], "count"),
        "statediag.build.s": (s("statediag.build"), "s"),
        "statediag.build.states": (counts["statediag.build.states"], "count"),
        "statediag.build.edges": (counts["statediag.build.edges"], "count"),
        "statediag.zero_weight_cycle_exists.s": (s("statediag.zero_weight_cycle_exists"), "s"),
        "statediag.delay_free_check.s": (s("statediag.delay_free_check"), "s"),
        "galois.field_ops": (counts["galois.field_ops"], "count"),
        "galois.field_make.calls": (counts["galois.field_make.calls"], "count"),
        "galois.field_make.s": (s("galois.field_make"), "s"),
        "polyalg.encoder_info.s": (s("polyalg.encoder_info"), "s"),
        "polyalg.encoder_info.calls": (counts["polyalg.encoder_info.calls"], "count"),
        "polyalg.codes_equal.s": (s("polyalg.codes_equal"), "s"),
        "encoder.controller_form.s": (s("encoder.controller_form"), "s"),
        "invariance.gen_adj_equal.s": (s("invariance.gen_adj_equal"), "s"),
        "invariance.gen_adj_equal.calls": (counts["invariance.gen_adj_equal.calls"], "count"),
        "invariance.gen_adj_equal.witnesses": (counts["invariance.gen_adj_equal.witnesses"], "count"),
        "cli.parse_gm.s": (s("cli.parse_gm"), "s"),
        "cli.main.self_s": (selfs.get("cli.main", 0.0), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    for layer, (self_s, _) in tracer.layer_table().items():
        metrics[f"layer.{layer}.self_s"] = (self_s, "s")
    return metrics


def print_layer_table(workload: str, tracer: Tracer, traced_wall: float) -> None:
    print(f"# per-layer self time, traced pass of {workload} (wall {traced_wall:.3f} s)")
    table = tracer.layer_table()
    accounted = 0.0
    for layer, (self_s, spans) in table.items():
        accounted += self_s
        print(f"#   {layer:<11} self {self_s:9.4f} s  {100 * self_s / traced_wall:5.1f}%  spans {spans}")
    print(f"#   layers account for {accounted:.4f} s = {100 * accounted / traced_wall:.1f}% of traced wall")
    calls = sorted((k, v) for k, v in tracer.counts.items() if k.endswith(".calls"))
    print("#   calls: " + ", ".join(f"{k[:-6]}={v}" for k, v in calls))
    print(f"#   galois.field_ops={tracer.counts['galois.field_ops']}")


def print_anchor_rows(items, tracer: Tracer, untraced_times) -> None:
    for item, dt in zip(items, untraced_times):
        if item.cls != "anchor":
            continue
        tot = tracer.item_totals(item.name)
        ms = lambda name: 1000 * tot.get(name, 0.0)
        trunc = item.facts.get("trunc")
        print(
            f"# anchor {item.name} ({item.facts['states']} states): item {1000 * dt:.1f} ms untraced; "
            f"build {ms('statediag.build'):.1f} ms, adjacency {ms('spectrum.adjacency'):.1f} ms, "
            f"phi_series {ms('spectrum.phi_series'):.1f} ms" + (f" (T={trunc})" if trunc else "")
            + f", gen_adj_equal {ms('invariance.gen_adj_equal'):.1f} ms"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CLASSES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="nominal; exactly one pass over the corpus is timed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    convcode = import_convcode()
    cli = convcode.cli
    setup = setup_seconds()

    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    t0 = time.perf_counter()
    items = workloads.build(args.workload, args.seed, workdir)
    print(f"# {args.workload} seed {args.seed}: {len(items)} items generated in "
          f"{time.perf_counter() - t0:.2f} s")

    # warm-up, untimed: one item of each class; its outputs are kept for the
    # repeat check
    warm: dict[int, tuple[int, str]] = {}
    seen = set()
    for idx, item in enumerate(items):
        if item.cls not in seen:
            seen.add(item.cls)
            _, rc, out, _ = call(cli, item.argv)
            warm[idx] = (rc, out)

    tracer = None
    if args.trace:
        tracer = Tracer(convcode)
        (wall, times, results), traced = run_paired_pass(cli, items, tracer)
    else:
        wall, times, results, probes = run_pass(cli, items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks (untimed) ----------------------------------------------------------
    checker = Checker(args.workload, convcode.oracle, cli.parse_gm)
    base = [(rc, out) for rc, out, _ in results]
    timed = [base] + ([[(rc, out) for rc, out, _ in traced[2]]] if tracer else [])
    attempted = failed = 0
    failures: dict[str, int] = {}
    for idx, item in enumerate(items):
        fails = checker(item, *base[idx])
        reruns = [run[idx] for run in timed[1:]] + ([warm[idx]] if idx in warm else [])
        if any(r != base[idx] for r in reruns):
            fails.append(("repeat", "output differs between two calls of the item"))
        attempted += len(timed)
        failed += len(timed) if fails else 0
        for name, msg in fails:
            failures[name] = failures.get(name, 0) + 1
            if failures[name] <= 3:
                err = results[idx][2].strip().splitlines()
                print(f"# FAILED {item.name} [{name}]: {msg[:200]}" + (f" | {err[-1]}" if err else ""))
    correct = failed == 0

    selftest = checks.planted_faults(args.workload, items, base, checker)
    fired = sum(1 for _, ok in selftest if ok)
    print(f"# planted-fault self-test: {fired}/{len(selftest)} checks fired: "
          + ", ".join(f"{n}={'fired' if ok else 'SILENT'}" for n, ok in selftest))
    correct = correct and fired == len(selftest)

    dig = checks.digest(items, base)
    if args.seed == DEFAULT_SEED:
        stored = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                stored = json.load(fh)
        match = stored.get(args.workload) == dig
        print(f"# output digest {dig}: {'matches' if match else 'DIFFERS FROM'} the one in "
              f"{os.path.relpath(DIGESTS, ROOT)}")
        correct = correct and match
    else:
        print(f"# output digest {dig} (stored digests are for seed {DEFAULT_SEED})")

    # -- metrics ---------------------------------------------------------------------
    by_class: dict[str, list[float]] = {}
    for item, t in zip(items, times):
        by_class.setdefault(item.cls, []).append(t)
    print(f"# untraced pass wall {wall:.3f} s; "
          f"setup samples {', '.join(f'{s:.4f}' for s, _ in setup)} s")
    for cls, ts in by_class.items():
        print(f"#   class {cls:<12} {len(ts):3d} items, ms min {1000 * min(ts):8.1f} "
              f"median {1000 * statistics.median(ts):8.1f} max {1000 * max(ts):8.1f}")

    if tracer is None:
        ref = reference_times(times, probes)
        print(f"# raw: setup_s = {statistics.median(s for s, _ in setup)} s, "
              f"wall_s = {wall} s, "
              f"item_ms_p50 = {1000 * statistics.median(times)} ms, "
              f"item_ms_p90 = {1000 * quantile(times, 0.90)} ms; host speed: probe median "
              f"{1000 * statistics.median(probes):.3f} ms (reference {1000 * REF_PROBE_S:.1f} ms), "
              f"min {1000 * min(probes):.3f} max {1000 * max(probes):.3f}")
        metrics = {
            "wall_ref_s": (sum(ref), "ref_s"),
            "item_ref_ms_p50": (1000 * statistics.median(ref), "ref_ms"),
            "item_ref_ms_p90": (1000 * quantile(ref, 0.90), "ref_ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # reference seconds as well (see README.md); the unit stays "s"
            "setup_s": (statistics.median(s * REF_PROBE_S / p for s, p in setup), "s"),
        }
        print(f"# failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    else:
        traced_wall = traced[0]
        print_layer_table(args.workload, tracer, traced_wall)
        print_anchor_rows(items, tracer, times)
        metrics = layer_metrics(tracer, traced_wall, wall)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed})
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
