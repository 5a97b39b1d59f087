"""Per-layer spans recorded from outside the riskrev package.

A traced pass rebinds selected names in the riskrev modules to timing
wrappers and restores them afterwards, so the package itself is never
edited.  A name is rebound in the module that *calls* it: for example
``asymptotics.project_polygon_2d_batch`` is the geometry kernel as the
reversal scan sees it, and ``exact_risk.owens_t`` is the Gaussian layer as
the closed forms see it.  A span's self time is its duration minus the time
spent in wrapped calls made from inside it, including the tracer's own
bookkeeping for those calls, so self times of all spans add up to the
traced time minus the bookkeeping of the outermost spans.

Spans are kept in memory as per-name totals; nothing is written until the
benchmark prints its report.
"""

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Snapshot:
    """Totals of one traced pass: spans by name, counters, and thread ids seen."""

    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    draw_threads: int = 0


def _polygon_counts(counts, args, result):
    points = np.asarray(args[1])
    counts["geometry.project_polygon_2d_batch.points"] += len(points)
    # interior points come back as exact copies of their input rows
    counts["geometry.project_polygon_2d_batch.inside"] += int(
        np.count_nonzero(np.all(result == points, axis=1))
    )


def _cone_counts(counts, args, result):
    counts["geometry.project_cone_nonneg_batch.points"] += len(result)


def _draw_counts(counts, args, result):
    counts["montecarlo.draw.normals"] += int(result.size)


def _candidate_counts(counts, args, result):
    counts["asymptotics.candidates"] += len(result)


def _render_counts(counts, args, result):
    counts["cli.output_bytes"] += len(result.encode("utf-8"))


# (calling module, attribute, span name, counter update or None)
WRAPS = (
    ("cli", "main", "cli", None),
    ("cli", "detect_finite_sigma_reversal", "asymptotics.detect_finite_sigma_reversal", None),
    ("cli", "envelope_curve", "asymptotics.envelope_curve", None),
    ("cli", "risk_segment_exact", "exact_risk.risk_segment_exact", None),
    ("cli", "risk_triangle_exact", "exact_risk.risk_triangle_exact", None),
    ("cli", "mc_risk", "montecarlo.mc_risk", None),
    ("cli", "render_csv", "cli.render", _render_counts),
    ("cli", "render_json", "cli.render", _render_counts),
    ("exact_risk", "risk_segment_exact", "exact_risk.risk_segment_exact", None),
    ("exact_risk", "risk_triangle_exact", "exact_risk.risk_triangle_exact", None),
    ("exact_risk", "owens_t", "gaussfn.owens_t", None),
    ("asymptotics", "statistical_dimension_mc", "asymptotics.statistical_dimension_mc", None),
    ("asymptotics", "_sup_candidates", "asymptotics.sup_candidates", _candidate_counts),
    ("asymptotics", "project_polygon_2d_batch", "geometry.project_polygon_2d_batch", _polygon_counts),
    ("asymptotics", "project_cone_nonneg_batch", "geometry.project_cone_nonneg_batch", _cone_counts),
    ("asymptotics", "_chunk_normals", "montecarlo.draw", _draw_counts),
    ("asymptotics", "_merge_moments", "montecarlo.merge", None),
    ("montecarlo", "mc_risk", "montecarlo.mc_risk", None),
    ("montecarlo", "project_polygon_2d_batch", "geometry.project_polygon_2d_batch", _polygon_counts),
    ("montecarlo", "project_polytope", "geometry.project_polytope", None),
    ("montecarlo", "_chunk_normals", "montecarlo.draw", _draw_counts),
    ("montecarlo", "_merge_moments", "montecarlo.merge", None),
)


class Tracer:
    """Installs span wrappers into the riskrev modules and sums their spans."""

    def __init__(self, modules, wraps=WRAPS):
        self._modules = modules
        self._wraps = wraps
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []
        self.missing = []
        self.reset()

    def reset(self):
        with self._lock:
            self._spans = defaultdict(SpanStats)
            self._counts = defaultdict(int)
            self._draw_threads = set()

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(
                spans={name: SpanStats(**vars(s)) for name, s in self._spans.items()},
                counts=dict(self._counts),
                draw_threads=len(self._draw_threads),
            )

    def __enter__(self):
        self.missing = []
        for module_name, attr, span, update in self._wraps:
            module = self._modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                # a later version may have removed the name; its metrics read 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, update))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, update):
        clock = time.perf_counter
        is_draw = name == "montecarlo.draw"

        def wrapper(*args, **kwargs):
            entered = clock()
            stack = self._stack()
            stack.append(0.0)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                children = stack.pop()
                with self._lock:
                    stats = self._spans[name]
                    stats.calls += 1
                    stats.busy_s += end - start
                    stats.self_s += end - start - children
                    if not ok:
                        stats.errors += 1
                    elif update is not None:
                        update(self._counts, args, result)
                    if is_draw:
                        self._draw_threads.add(threading.get_ident())
                if stack:
                    stack[-1] += clock() - entered
            return result

        return wrapper


def layer_metrics(snap: Snapshot, wall_s: float):
    """Per-layer metrics of one traced pass as ``{name: (value, unit)}``."""
    spans, counts = snap.spans, snap.counts
    empty = SpanStats()

    def span(name):
        return spans.get(name, empty)

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    out = {}
    poly = span("geometry.project_polygon_2d_batch")
    points = counts.get("geometry.project_polygon_2d_batch.points", 0)
    inside = counts.get("geometry.project_polygon_2d_batch.inside", 0)
    out["geometry.project_polygon_2d_batch.calls"] = (poly.calls, "count")
    out["geometry.project_polygon_2d_batch.points"] = (points, "count")
    out["geometry.project_polygon_2d_batch.busy_s"] = (poly.busy_s, "s")
    out["geometry.project_polygon_2d_batch.ns_per_point"] = (per(poly.busy_s, points, 1e9), "ns")
    out["geometry.project_polygon_2d_batch.inside_frac"] = (per(inside, points), "frac")

    scan = span("asymptotics.detect_finite_sigma_reversal")
    out["asymptotics.detect_finite_sigma_reversal.busy_s"] = (scan.busy_s, "s")
    out["asymptotics.detect_finite_sigma_reversal.self_s"] = (scan.self_s, "s")
    out["asymptotics.candidates"] = (counts.get("asymptotics.candidates", 0), "count")
    out["asymptotics.envelope_curve.busy_s"] = (span("asymptotics.envelope_curve").busy_s, "s")
    out["asymptotics.statistical_dimension_mc.self_s"] = (
        span("asymptotics.statistical_dimension_mc").self_s,
        "s",
    )

    draw, merge, risk = span("montecarlo.draw"), span("montecarlo.merge"), span("montecarlo.mc_risk")
    out["montecarlo.draw.calls"] = (draw.calls, "count")
    out["montecarlo.draw.normals"] = (counts.get("montecarlo.draw.normals", 0), "count")
    out["montecarlo.draw.busy_s"] = (draw.busy_s, "s")
    out["montecarlo.merge.calls"] = (merge.calls, "count")
    out["montecarlo.merge.busy_s"] = (merge.busy_s, "s")
    out["montecarlo.mc_risk.calls"] = (risk.calls, "count")
    out["montecarlo.mc_risk.busy_s"] = (risk.busy_s, "s")
    out["montecarlo.mc_risk.self_s"] = (risk.self_s, "s")
    # one draw per chunk of samples
    out["montecarlo.chunks"] = (draw.calls, "count")
    out["montecarlo.workers"] = (snap.draw_threads, "count")

    tri, seg, owen = (
        span("exact_risk.risk_triangle_exact"),
        span("exact_risk.risk_segment_exact"),
        span("gaussfn.owens_t"),
    )
    out["exact_risk.risk_triangle_exact.calls"] = (tri.calls, "count")
    out["exact_risk.risk_triangle_exact.busy_s"] = (tri.busy_s, "s")
    out["exact_risk.risk_triangle_exact.self_s"] = (tri.self_s, "s")
    out["exact_risk.risk_segment_exact.calls"] = (seg.calls, "count")
    out["exact_risk.risk_segment_exact.busy_s"] = (seg.busy_s, "s")
    out["gaussfn.owens_t.calls"] = (owen.calls, "count")
    out["gaussfn.owens_t.busy_s"] = (owen.busy_s, "s")

    polytope, cone = span("geometry.project_polytope"), span("geometry.project_cone_nonneg_batch")
    out["geometry.project_polytope.calls"] = (polytope.calls, "count")
    out["geometry.project_polytope.busy_s"] = (polytope.busy_s, "s")
    out["geometry.project_polytope.us_per_call"] = (per(polytope.busy_s, polytope.calls, 1e6), "us")
    out["geometry.project_polytope.errors"] = (polytope.errors, "count")
    out["geometry.project_cone_nonneg_batch.points"] = (
        counts.get("geometry.project_cone_nonneg_batch.points", 0),
        "count",
    )
    out["geometry.project_cone_nonneg_batch.busy_s"] = (cone.busy_s, "s")

    out["cli.render.busy_s"] = (span("cli.render").busy_s, "s")
    out["cli.self_s"] = (span("cli").self_s, "s")
    out["cli.output_bytes"] = (counts.get("cli.output_bytes", 0), "B")

    self_sum = sum(s.self_s for s in spans.values())
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.self_sum_frac"] = (per(self_sum, wall_s), "frac")
    return out


def self_time_shares(snap: Snapshot, wall_s: float):
    """(span name, self seconds, share of the pass) for every span, largest first."""
    rows = [(name, s.self_s, s.self_s / wall_s) for name, s in snap.spans.items()]
    return sorted(rows, key=lambda row: -row[1])
