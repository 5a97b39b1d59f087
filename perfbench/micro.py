"""Layer micro-timings at fixed shapes, measured with tracing off.

Each timing is the median of several repeats.  The shapes follow the
layers the roadmap names: one chunk of normals (``DEFAULT_CHUNK`` x 2) split
into the Philox draw and ``ndtri``, the batch polygon projection at K = 2, 3
and 8 on one chunk of points, the chunk-moment merge, one ``owens_t`` call,
one ``risk_triangle_exact`` call and one 3-D ``project_polytope`` call.

The projection kernel's operation count and bytes moved are computed, not
measured: they count the numpy expressions of the K >= 3 path of
``project_polygon_2d_batch`` as it stands at the parent revision, with each
array pass reading and writing whole float64 (8 B) or bool (1 B) arrays and
masked assignments counted at full width.  Cache reuse is ignored, so the
bytes are an upper bound on memory traffic.  ``KERNEL_SHA256`` is the
sha256 of that kernel's source; when the live source differs, the table is
stale, so the computed metrics read 0 and a warning says so.
"""

import hashlib
import inspect
import math
import statistics
import sys
import time

import numpy as np

# (flops, bytes read, bytes written) per point per edge of the K >= 3 path
_EDGE_PASSES = (
    (1, 8, 8),     # d0 = y0 - v0
    (1, 8, 8),     # d1 = y1 - v1
    (3, 32, 24),   # e0 * d1 - e1 * d0
    (1, 8, 1),     # >= 0.0
    (0, 2, 1),     # inside &=
    (4, 40, 32),   # (d0 * e0 + d1 * e1) / len_sq
    (2, 8, 8),     # clip in place
    (4, 32, 32),   # fx, fy = v + t * e
    (5, 64, 40),   # (y0 - fx) ** 2 + (y1 - fy) ** 2
    (1, 16, 1),    # better = d2 < best_d2
    (0, 54, 48),   # best_d2, out[:, 0], out[:, 1] masked updates, via masked temporaries
)
# (bytes read, bytes written) per point outside the edge loop: initialising
# best_d2 and inside, and out[inside] = Y[inside] through a masked temporary
_TAIL_BYTES = (34, 41)
# sha256 of inspect.getsource(geometry.project_polygon_2d_batch) that the table counts
KERNEL_SHA256 = "20e68d1c8a39bd8c84ae1cf99d17e84575915f8528d1ae63949a3a448c1fc716"


def projection_cost(k: int):
    """Computed (flops, bytes moved) per point of the K >= 3 projection kernel."""
    flops = k * sum(p[0] for p in _EDGE_PASSES)
    moved = k * sum(p[1] + p[2] for p in _EDGE_PASSES) + sum(_TAIL_BYTES)
    return flops, moved


def kernel_matches(geo):
    """Whether the live projection kernel is the one the cost table counts."""
    source = inspect.getsource(geo.project_polygon_2d_batch)
    return hashlib.sha256(source.encode("utf-8")).hexdigest() == KERNEL_SHA256


def _median_time(fn, repeats, inner=1):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def _regular_polygon(k, radius=1.0):
    angles = 2.0 * math.pi * np.arange(k) / k
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


def measure(rr):
    """Per-layer micro-timings as ``{metric name: (value, unit)}``."""
    from scipy import special

    mc, geo, er, gf = rr.montecarlo, rr.geometry, rr.exact_risk, rr.gaussfn
    chunk = mc.DEFAULT_CHUNK
    key = np.array([12345, 0], dtype=np.uint64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random((chunk, 2))
    np.maximum(uniforms, 2.0**-53, out=uniforms)
    out = {}
    out["micro.philox_ms"] = (
        1e3 * _median_time(lambda: np.random.Generator(np.random.Philox(key=key)).random((chunk, 2)), 7),
        "ms",
    )
    out["micro.ndtri_ms"] = (1e3 * _median_time(lambda: special.ndtri(uniforms), 7), "ms")

    points = 2.0 * special.ndtri(uniforms)
    counted = kernel_matches(geo)
    if not counted:
        print("warning: project_polygon_2d_batch differs from the kernel that micro._EDGE_PASSES "
              "counts; the computed projection metrics read 0 until the table is updated",
              file=sys.stderr)
    g = geo.ExampleGeometry(c=0.75, x=0.5)
    polygons = {2: g.segment(), 3: g.theta_x_polytope(), 8: geo.ConvexPolytope(_regular_polygon(8))}
    for k, poly in polygons.items():
        seconds = _median_time(lambda: geo.project_polygon_2d_batch(poly, points), 7)
        out[f"micro.project_k{k}_ms"] = (1e3 * seconds, "ms")
        if k == 3:
            flops, moved = projection_cost(k) if counted else (0, 0)
            out["micro.project_k3_flops_per_point_computed"] = (float(flops), "flop")
            out["micro.project_k3_bytes_per_point_computed"] = (float(moved), "B")
            out["micro.project_k3_gb_per_s_computed"] = (moved * chunk / seconds / 1e9, "GB/s")

    # four chunk moments, as n = 10^6 makes; a version without the helper reads 0
    parts = [(chunk, 0.1 * j, 3.0 + j) for j in range(4)]
    merge = getattr(mc, "_merge_moments", None)
    out["micro.merge_us"] = (1e6 * _median_time(lambda: merge(parts), 7, 1000) if merge else 0.0, "us")
    out["micro.owens_t_us"] = (1e6 * _median_time(lambda: gf.owens_t(0.7, 1.3), 7, 1000), "us")
    tri = geo.ExampleGeometry(c=0.75)
    out["micro.risk_triangle_exact_us"] = (
        1e6 * _median_time(lambda: er.risk_triangle_exact(tri, 2.0), 7, 200),
        "us",
    )
    side = math.sqrt(2.0)
    cube = geo.ConvexPolytope([[a, b, c] for a in (0.0, side) for b in (0.0, side) for c in (0.0, side)])
    y = np.array([2.0, -0.5, 0.7])
    out["micro.project_polytope_3d_us"] = (
        1e6 * _median_time(lambda: geo.project_polytope(cube, y), 7, 200),
        "us",
    )
    return out
