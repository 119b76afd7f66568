"""Outside-in tracing of the dirichlet-lab layers.

The program carries no instrumentation.  While a :class:`Tracer` is active
it replaces module attributes that callers look up at call time with
wrappers that record one span per call (name, start, end, parent span) and,
for some layers, a count of the work the call did.  Leaving the ``with``
block puts the original attributes back.  Spans stay in memory; the
per-layer metrics are derived from them afterwards by
:func:`layer_metrics`.

A probe whose attribute no longer exists is skipped and its layer is listed
in ``Tracer.absent``; its metrics then read 0.  ``dirichlet_lab.exterior``
is on no CLI path and has no probe.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import statistics
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


def _rows(args, kwargs, result) -> int:
    return len(result)


def _one(args, kwargs, result) -> int:
    return 1


def _qgrid_evals(args, kwargs, result) -> int:
    """Computed, not counted: samples x q-grid points the scan visits."""
    rows, t = args[0], args[1]
    cap = args[2] if len(args) > 2 else kwargs["cap"]
    points = math.prod(2 * math.floor(cap / math.exp(-tj)) + 1 for tj in t.t[t.m:])
    return len(rows) * points


def _report_bytes(args, kwargs, result) -> int:
    return sum(p.stat().st_size for p in Path(result).iterdir() if p.is_file())


_PARSER = "parser"  # build_parser probe: also traces the parser's parse_args

# (layer, module, attribute, counter).  The counter maps (args, kwargs,
# result) of one call to the work it did; None records time only.
PROBES = (
    ("cli.parse", "dirichlet_lab.cli", "build_parser", _PARSER),
    ("experiments.collect", "dirichlet_lab.experiments", "_collect_in_ball", _rows),
    ("measures.sample", "dirichlet_lab.experiments", "sample", _rows),
    ("measures.evaluate", "dirichlet_lab.measures", "MapSpec.evaluate", None),
    ("rng.stream", "dirichlet_lab.rng", "stream", _one),
    ("experiments.qgrid", "dirichlet_lab.experiments", "_lambda1_rows_batch", _qgrid_evals),
    ("experiments.haar", "dirichlet_lab.experiments", "haar_sample_k2", None),
    ("lattice.k2_batch", "dirichlet_lab.experiments", "shortest_supnorm_k2_batch", _rows),
    ("flows.flowed_basis", "dirichlet_lab.experiments", "flowed_basis", None),
    ("lattice.svp", "dirichlet_lab.experiments", "shortest_with_region", None),
    ("lattice.reduce_basis", "dirichlet_lab.lattice", "reduce_basis", _one),
    ("lattice.enumerate", "dirichlet_lab.lattice", "_enumerate_shortest", None),
    ("reports.write", "dirichlet_lab.reports", "write_report", _report_bytes),
)

# metric name -> (unit, kind, probe layer it is derived from).  "counted"
# and "computed" metrics are exact and repeat for a fixed seed; the others
# are medians over traced runs.
LAYER_METRICS = {
    "experiments.qgrid.s": ("s", "time", "experiments.qgrid"),
    "experiments.qgrid.evals": ("evals", "computed", "experiments.qgrid"),
    "experiments.qgrid.evals_per_s": ("1/s", "derived", "experiments.qgrid"),
    "experiments.collect.s": ("s", "time", "experiments.collect"),
    "experiments.collect.passes": ("passes", "counted", "experiments.collect"),
    "experiments.haar.s": ("s", "time", "experiments.haar"),
    "experiments.boundary_n": ("samples", "counted", None),
    "measures.sample.s": ("s", "time", "measures.sample"),
    "measures.sample.points": ("points", "counted", "measures.sample"),
    "measures.sample.accept_ratio": ("ratio", "derived", "measures.sample"),
    "measures.evaluate.s": ("s", "time", "measures.evaluate"),
    "rng.blocks": ("blocks", "counted", "rng.stream"),
    "rng.stream.s": ("s", "time", "rng.stream"),
    "lattice.k2_batch.s": ("s", "time", "lattice.k2_batch"),
    "lattice.k2_batch.lattices": ("lattices", "counted", "lattice.k2_batch"),
    "lattice.reduce_basis.s": ("s", "time", "lattice.reduce_basis"),
    "lattice.reduce_basis.calls": ("calls", "counted", "lattice.reduce_basis"),
    "lattice.enumerate.s": ("s", "time", "lattice.enumerate"),
    "lattice.svp_ms.p50": ("ms", "time", "lattice.svp"),
    "lattice.svp_ms.p99": ("ms", "time", "lattice.svp"),
    "flows.flowed_basis.s": ("s", "time", "flows.flowed_basis"),
    "reports.write.s": ("s", "time", "reports.write"),
    "reports.bytes": ("bytes", "counted", "reports.write"),
    "cli.parse.s": ("s", "time", "cli.parse"),
    "trace.wall_s": ("s", "time", None),
    "trace.overhead_s": ("s", "time", None),
}

EXACT = tuple(name for name, (_, kind, _) in LAYER_METRICS.items()
              if kind in ("counted", "computed"))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    n: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that traces every probe while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list = []

    def __enter__(self) -> "Tracer":
        for layer, module_name, attribute, counter in PROBES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.absent.append(layer)
                continue
            if counter == _PARSER:
                wrapper = self._parser_wrapper(layer, original)
            else:
                wrapper = self._wrap(layer, original, counter)
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _wrap(self, layer, fn, counter):
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(next(ids), layer, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span.n = counter(args, kwargs, result)
            return result

        return traced

    def _parser_wrapper(self, layer, build_parser):
        traced_build = self._wrap(layer, build_parser, None)

        @functools.wraps(build_parser)
        def build(*args, **kwargs):
            parser = traced_build(*args, **kwargs)
            parser.parse_args = self._wrap(layer, parser.parse_args, None)
            return parser

        return build


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans: list, boundary_n: int) -> dict:
    """Per-layer metrics of one traced run, from its spans.

    A layer's time is the summed duration of its spans, except
    ``lattice.enumerate.s``, which is self time: span duration minus the
    spans it called on the same thread.  ``boundary_n`` comes from the
    run's report, not from a span.
    """
    by_name: dict = {}
    child_seconds: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

    def seconds(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def count(name):
        return sum(s.n for s in by_name.get(name, ()))

    collect_ids = {s.id for s in by_name.get("experiments.collect", ())}
    points = count("measures.sample")
    svp_ms = [1e3 * s.seconds for s in by_name.get("lattice.svp", ())]
    qgrid_s = seconds("experiments.qgrid")
    return {
        "experiments.qgrid.s": qgrid_s,
        "experiments.qgrid.evals": count("experiments.qgrid"),
        "experiments.qgrid.evals_per_s": (count("experiments.qgrid") / qgrid_s
                                          if qgrid_s else 0.0),
        "experiments.collect.s": seconds("experiments.collect"),
        "experiments.collect.passes": sum(
            1 for s in by_name.get("measures.sample", ()) if s.parent in collect_ids),
        "experiments.haar.s": seconds("experiments.haar"),
        "experiments.boundary_n": boundary_n,
        "measures.sample.s": seconds("measures.sample"),
        "measures.sample.points": points,
        "measures.sample.accept_ratio": (count("experiments.collect") / points
                                         if points else 0.0),
        "measures.evaluate.s": seconds("measures.evaluate"),
        "rng.blocks": count("rng.stream"),
        "rng.stream.s": seconds("rng.stream"),
        "lattice.k2_batch.s": seconds("lattice.k2_batch"),
        "lattice.k2_batch.lattices": count("lattice.k2_batch"),
        "lattice.reduce_basis.s": seconds("lattice.reduce_basis"),
        "lattice.reduce_basis.calls": count("lattice.reduce_basis"),
        "lattice.enumerate.s": sum(s.seconds - child_seconds.get(s.id, 0.0)
                                   for s in by_name.get("lattice.enumerate", ())),
        "lattice.svp_ms.p50": percentile(svp_ms, 50) if svp_ms else 0.0,
        "lattice.svp_ms.p99": percentile(svp_ms, 99) if svp_ms else 0.0,
        "flows.flowed_basis.s": seconds("flows.flowed_basis"),
        "reports.write.s": seconds("reports.write"),
        "reports.bytes": count("reports.write"),
        "cli.parse.s": seconds("cli.parse"),
    }


def median_layers(runs: list, traced_walls: list, untraced_walls: list) -> dict:
    """Per-layer metrics over traced runs: the median of each (exact counts
    are the same in every run), plus the traced wall time and the tracing
    overhead (traced minus untraced wall time)."""
    merged = {name: runs[0][name] if name in EXACT else statistics.median(r[name] for r in runs)
              for name in runs[0]}
    merged["trace.wall_s"] = statistics.median(traced_walls)
    merged["trace.overhead_s"] = merged["trace.wall_s"] - statistics.median(untraced_walls)
    return merged
