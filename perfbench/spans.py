"""Spans and counters around the public functions each layer exposes.

`Tracer.install()` replaces module attributes of `convcode` with timing
wrappers, so every call that goes through the attribute (from `cli` or
from another module) records a span: name, start, end, parent span and
the corpus item it belongs to.  `FieldSpec` arithmetic is only counted,
since a timer around a sub-microsecond call would mostly time itself.
Spans stay in memory and are written to a JSON file when the run ends.
`uninstall()` restores every attribute, so the checks run untraced.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "galois", "polyalg", "encoder", "statediag", "spectrum", "invariance", "trace")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv")


def _adjacency_stats(counts: Counter, lam) -> None:
    counts["spectrum.adjacency.cells"] += lam.size * lam.size
    counts["spectrum.adjacency.nonzero_cells"] += sum(1 for row in lam.entries for e in row if e)


def _build_stats(counts: Counter, sd) -> None:
    counts["statediag.build.states"] += sd.num_states
    counts["statediag.build.edges"] += sum(len(g) for g in sd.edges_by_source)


def _phi_stats(counts: Counter, phi) -> None:
    counts["spectrum.series_terms"] += sum(c.nonzero_terms() for c in phi.coeffs)


def _witness_stats(counts: Counter, witness) -> None:
    counts["invariance.gen_adj_equal.witnesses"] += witness is not None


class Tracer:
    def __init__(self, package):
        self.pkg = package  # the imported `convcode` package
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = ""
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str, stats=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.item])
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid][1], spans[sid][2] = start, end
            counts[name + ".calls"] += 1
            if stats is not None:
                # bookkeeping gets its own span so it is not charged to the caller
                spans.append(["trace.stats", end, 0.0, stack[-1] if stack else -1, self.item])
                stats(counts, result)
                spans[-1][2] = clock()
            return result

        return traced

    def _count(self, fn):
        counts = self.counts

        def counted(*args):
            counts["galois.field_ops"] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        p = self.pkg
        cli, polyalg, encoder = p.cli, p.polyalg, p.encoder
        statediag, spectrum, invariance = p.statediag, p.spectrum, p.invariance
        targets = [
            (cli, "main", "cli.main", None),
            (cli, "parse_gm", "cli.parse_gm", None),
            (cli, "field_make", "galois.field_make", None),
            (polyalg, "encoder_info", "polyalg.encoder_info", None),
            (polyalg, "codes_equal", "polyalg.codes_equal", None),
            (polyalg, "right_inverse", "polyalg.right_inverse", None),
            (encoder, "controller_form", "encoder.controller_form", None),
            (statediag, "build", "statediag.build", _build_stats),
            (statediag, "zero_weight_cycle_exists", "statediag.zero_weight_cycle_exists", None),
            (statediag, "delay_free_check", "statediag.delay_free_check", None),
            (spectrum, "adjacency", "spectrum.adjacency", _adjacency_stats),
            (spectrum, "phi_series", "spectrum.phi_series", _phi_stats),
            (spectrum, "row_iterate", "spectrum.row_iterate", None),
            (spectrum, "omega_series", "spectrum.omega_series", None),
            (invariance, "gen_adj_equal", "invariance.gen_adj_equal", _witness_stats),
        ]
        for owner, attr, name, stats in targets:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, stats))
        for op in FIELD_OPS:
            self._patch(p.galois.FieldSpec, op, self._count(getattr(p.galois.FieldSpec, op)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- summaries --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> total self time (duration minus its children's)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        """Span name -> summed duration of its outermost occurrences."""
        names = [s[0] for s in self.spans]
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += end - start
        return dict(out)

    def item_totals(self, item: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, it in self.spans:
            if it == item:
                out[name] += end - start
        return dict(out)

    def layer_table(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self time, spans) over all spans."""
        table = {layer: [0.0, 0] for layer in LAYERS}
        for name, t in self.self_times().items():
            table[name.split(".")[0]][0] += t
        for name, *_ in self.spans:
            table[name.split(".")[0]][1] += 1
        return {k: (v[0], v[1]) for k, v in table.items()}

    def write(self, path: str, meta: dict) -> None:
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "item": it}
            for i, (n, s, e, p, it) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "counts": dict(self.counts), "spans": spans}, fh)
