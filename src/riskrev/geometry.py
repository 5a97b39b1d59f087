"""Convex polytopes in vertex form: projections, faces, and cones.

Polytopes are given by their vertices, conv{v_1, ..., v_K}.  One function,
``_block_projector``, picks the projector for a polytope: in the plane an
exact edge search (a segment is one edge, a point one edge of length zero),
in any other dimension Wolfe's min-norm-point iteration, each point with its
own active set and a certified result.  Cones given by generators have an
exact nonnegative least-squares projection by subset enumeration.  All three
work on blocks of points, and the batch projections are row independent: a
point projected alone gives the same bits as inside any batch.  The running
triangle family also has a region-table projector.  Tangent and normal cones
are classified for planar polytopes.

All types are immutable after construction and all operations are pure, so
everything here is safe for shared concurrent use.
"""

import itertools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

# distance below which a point counts as belonging to a set; callers pass
# floating-point vertices, so exact membership would be too strict
MEMBERSHIP_TOL = 1e-9

# subset enumeration in project_cone_nonneg grows as 2^m
MAX_CONE_GENERATORS = 16


class ProjectionError(RuntimeError):
    """A projection failed to certify its result or had no finite answer."""


def _real(value) -> float:
    """``value`` as a float if it is a real number other than a bool, else NaN, which every range check refuses."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    return math.nan


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Extreme points of a 2D point set, counterclockwise.

    Monotone chain; collinear boundary points are dropped so every stored
    vertex is extreme.  The first vertex is the lexicographically smallest.
    """
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = [tuple(p) for p in points[order]]

    def half_hull(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross2(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half_hull(pts)
    upper = half_hull(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all input points collinear, or a single point
        hull = [pts[0], pts[-1]] if len(pts) > 1 else [pts[0]]
    return np.array(hull, dtype=float)


class ConvexPolytope:
    """Compact convex polytope conv{v_1, ..., v_K} stored by its vertices.

    Planar vertex lists with K >= 3 are convexified at construction: the
    stored vertices are the extreme points in counterclockwise order starting
    at the lexicographically smallest, so redundant (non-extreme) input points
    are dropped.  Exactly duplicated input vertices are rejected.  For d != 2
    the vertex list is stored as given.
    """

    __slots__ = ("vertices", "dim")

    def __init__(self, vertices):
        arr = np.array(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vertices must be a nonempty K x d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vertices must have finite coordinates")
        rows = [tuple(row) for row in arr.tolist()]
        if len(set(rows)) != len(rows):
            raise ValueError("duplicate vertices are not allowed")
        if arr.shape[1] == 2 and arr.shape[0] >= 3:
            arr = _convex_hull_ccw(arr)
        arr.setflags(write=False)
        self.vertices = arr
        self.dim = int(arr.shape[1])

    @property
    def n_vertices(self) -> int:
        return int(self.vertices.shape[0])

    def squared_diameter(self) -> float:
        """max_{i,j} ||v_i - v_j||^2, an upper bound for any squared projection error."""
        v = self.vertices
        diff = v[:, None, :] - v[None, :, :]
        return float(np.max(np.einsum("ijk,ijk->ij", diff, diff)))

    def __repr__(self):
        return f"ConvexPolytope(K={self.n_vertices}, dim={self.dim})"


@dataclass(frozen=True)
class ExampleGeometry:
    """The running segment/triangle family in the plane.

    Vertices are v1 = (0, 0), v2 = (1/c, 1), v3 = (0, 1) for a slope
    parameter c > 0; the segment is conv{v1, v2} and the triangle is
    conv{v1, v2, v3}.  The optional ``x`` in [0, 1/c] places a movable vertex
    vx = (x, 1) on the top edge, giving the intermediate triangle
    conv{v1, v2, vx} that interpolates between the two (x = 0 recovers the
    full triangle, x = 1/c collapses onto the segment).
    """

    c: float
    x: float | None = None

    def __post_init__(self):
        c = _real(self.c)
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"c must be a positive finite real, got {self.c!r}")
        object.__setattr__(self, "c", c)
        if self.x is not None:
            x = _real(self.x)
            if not (math.isfinite(x) and 0.0 <= x <= 1.0 / c):
                raise ValueError(f"x must lie in [0, 1/c] = [0, {1.0 / c!r}], got {self.x!r}")
            object.__setattr__(self, "x", x)

    @property
    def alpha_c(self) -> float:
        """||v2||^2 = 1 + 1/c^2."""
        return 1.0 + 1.0 / (self.c * self.c)

    @property
    def v1(self) -> np.ndarray:
        return np.array([0.0, 0.0])

    @property
    def v2(self) -> np.ndarray:
        return np.array([1.0 / self.c, 1.0])

    @property
    def v3(self) -> np.ndarray:
        return np.array([0.0, 1.0])

    @property
    def vx(self) -> np.ndarray:
        if self.x is None:
            raise ValueError("this geometry has no movable vertex (x is None)")
        return np.array([self.x, 1.0])

    def segment(self) -> ConvexPolytope:
        return ConvexPolytope([self.v1, self.v2])

    def triangle(self) -> ConvexPolytope:
        return ConvexPolytope([self.v1, self.v2, self.v3])

    def theta_x_polytope(self) -> ConvexPolytope:
        """conv{v1, v2, vx}; the degenerate x = 1/c collapses to the segment."""
        if self.x is None:
            raise ValueError("this geometry has no movable vertex (x is None)")
        if self.x == 1.0 / self.c:
            return self.segment()
        return ConvexPolytope([self.v1, self.v2, self.vx])


class RegionLabel(Enum):
    """Affine pieces of the triangle projector: interior, three edges, three vertices."""

    INTERIOR = "Interior"
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A12 = "A12"
    A13 = "A13"
    A23 = "A23"


class ConeKind(Enum):
    POINT = "point"
    RAY = "ray"
    WEDGE = "wedge"
    HALFPLANE = "halfplane"
    FULL = "full"


@dataclass(frozen=True)
class Cone2D:
    """Closed convex cone in the plane, described by the arc of its directions.

    ``apex_angle`` is the arc measure (radians) of the cone's unit directions:
    0 for a point or ray, the opening angle in (0, pi) for a wedge, pi for a
    halfplane, and 2*pi for the full plane.
    """

    kind: ConeKind
    apex_angle: float

    def __post_init__(self):
        angle = float(self.apex_angle)
        object.__setattr__(self, "apex_angle", angle)
        expected = {
            ConeKind.POINT: 0.0,
            ConeKind.RAY: 0.0,
            ConeKind.HALFPLANE: math.pi,
            ConeKind.FULL: 2.0 * math.pi,
        }
        if self.kind is ConeKind.WEDGE:
            if not 0.0 < angle < math.pi:
                raise ValueError(f"wedge apex angle must lie in (0, pi), got {angle!r}")
        elif abs(angle - expected[self.kind]) > 1e-12:
            raise ValueError(f"apex angle {angle!r} inconsistent with kind {self.kind}")


def _edge_chain(k: int) -> list[tuple[int, int]]:
    """Vertex index pairs (i, j) of the edges v_i -> v_j of a K-vertex polytope,
    in vertex order: closed for K >= 3, one edge for a segment, none for a point."""
    if k >= 3:
        return [(i, (i + 1) % k) for i in range(k)]
    return [(0, 1)] if k == 2 else []


# points per block of the planar and the cone projection: a polygon's seven
# float and two flag scratch rows (see _PolygonBlocks), under 1 MB, stay in
# cache across the edges, and a low-dimensional cone's across the subsets
_PROJECT_BLOCK = 1 << 14


class _PolygonBlocks:
    """Projection onto a planar polytope, one block of points at a time.

    The polytope is the chain of edges of :func:`_edge_chain`; a point has
    none, and its foot is its vertex.  Holds scratch for blocks of up to
    ``size`` points, so it is not safe for concurrent use:
    :func:`_block_projector` makes a new one per call.  The scratch is seven
    float rows, whatever K: the offsets y - v, which later hold an edge's
    foot; t, also read as int64 bits; the squared distance, also read as the
    int64 select mask; the best squared distance so far; and the two result
    rows.  Two flag rows hold inside and better.
    """

    def __init__(self, P: ConvexPolytope, size: int):
        v = P.vertices
        edge = np.roll(v, -1, axis=0) - v
        len_sq = np.einsum("ij,ij->i", edge, edge)
        self._closed = len(v) >= 3
        self._point = v.T if len(v) == 1 else None
        self._edges = [
            (v[i, 0], v[i, 1], edge[i, 0], edge[i, 1], len_sq[i]) for i, _ in _edge_chain(len(v))
        ]
        self.size = size
        self._floats = np.empty((7, size))
        self._flags = np.empty((2, size), dtype=bool)

    # rows with no finite distance go through inf/NaN arithmetic, then raise
    @np.errstate(invalid="ignore", over="ignore")
    def project(self, y: np.ndarray, first: int) -> np.ndarray:
        """Project the (2, b) block of coordinate rows ``y``, into a view of the scratch.

        Per edge it evaluates the foot v + t e, t = clip(<y - v, e> / ||e||^2,
        0, 1); on a polygon it keeps the foot of the last edge whose distance
        is strictly below the best so far, and points inside stay.  A point
        with no finite distance to the set (NaN or infinite coordinates, or,
        on a polygon, an overflowing squared distance) raises
        :class:`ProjectionError` naming its index from ``first``.
        """
        b = y.shape[1]
        y0, y1 = y
        d, x = self._floats[:2, :b], self._floats[5:, :b]
        (d0, d1), (x0, x1) = d, x
        t, d2, best = self._floats[2:5, :b]
        inside, better = flags = self._flags[:, :b]
        # the select works on int64 bits: a masked copy, whose branches
        # depend on the data, costs more than three plain passes
        bits, mask = t.view(np.int64), d2.view(np.int64)
        closed = self._closed
        # every step rounds as e0 * d1 >= e1 * d0, (d0 * e0 + d1 * e1) / len_sq,
        # v + t * e and (y0 - fx) ** 2 + (y1 - fy) ** 2 do on whole arrays; the
        # passes are one-dimensional, which costs less than broadcasting (2, b)
        for i, (vx, vy, e0, e1, len_sq) in enumerate(self._edges):
            np.subtract(y0, vx, out=d0)
            np.subtract(y1, vy, out=d1)
            if closed:
                # counterclockwise vertices: inside iff left of every edge;
                # e0 * d1 - e1 * d0 >= 0 agrees on every row that does not raise
                np.multiply(d1, e0, out=t)
                np.multiply(d0, e1, out=d2)
                if i == 0:
                    np.greater_equal(t, d2, out=inside)
                else:
                    inside &= np.greater_equal(t, d2, out=better)
            np.multiply(d0, e0, out=t)
            np.multiply(d1, e1, out=d2)
            t += d2
            t /= len_sq
            np.clip(t, 0.0, 1.0, out=t)
            # the first edge's foot is the result so far; later ones wait in d
            fx, fy = x if i == 0 else d
            np.multiply(t, e0, out=fx)
            fx += vx
            np.multiply(t, e1, out=fy)
            fy += vy
            if closed:
                np.subtract(y0, fx, out=d2)
                np.square(d2, out=d2)
                np.subtract(y1, fy, out=t)
                np.square(t, out=t)
                d2 += t
                if i == 0:
                    # a NaN distance is no distance: best stays inf
                    np.fmin(d2, np.inf, out=best)
                    continue
                np.less(d2, best, out=better)
                np.fmin(best, d2, out=best)
                # x = foot where better, as x ^= (x ^ foot) & -better
                np.negative(better.view(np.int8), out=mask)
                for xc, fc in zip(x.view(np.int64), d.view(np.int64)):
                    np.bitwise_xor(xc, fc, out=bits)
                    bits &= mask
                    xc ^= bits
        if closed:
            finite = np.isfinite(best, out=better)
            np.copyto(x, y, where=inside)
        else:
            # a point or a segment: the one foot is the projection, and its
            # distance may overflow, since no comparison needs it
            if self._point is not None:
                # the vertex's own bits, signed zeros included
                np.copyto(x, self._point)
            finite = np.isfinite(y, out=flags).all(axis=0)
            finite &= np.isfinite(x0, out=inside)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ProjectionError(
                f"point {first + i} ({float(y0[i])!r}, {float(y1[i])!r}) has no finite "
                "distance to the polygon"
            )
        return x


def project_polygon_2d_batch(P: ConvexPolytope, Y: np.ndarray) -> np.ndarray:
    """Planar :func:`project_polytope_batch` for an (n, 2) array of points.

    Points are projected in blocks of ``_PROJECT_BLOCK``; a point with no
    finite distance to the polytope raises :class:`ProjectionError` naming
    its row.
    """
    if P.dim != 2:
        raise ValueError("project_polygon_2d_batch requires a planar polytope")
    return project_polytope_batch(P, Y)


def project_triangle_example(g: ExampleGeometry, y):
    """Region-table projection onto the triangle conv{v1, v2, v3}.

    Classifies ``y`` into the affine piece of the projector that contains it
    and returns ``(projection, label)``.  Writing s = (y1 + c*y2)/(1 + c^2)
    for the foot parameter on the line through v1 and v2, the pieces are

        Interior: y1 >= 0, y2 <= 1, y2 >= c*y1         -> y
        A12: y2 <= c*y1, 0 <= s <= 1/c                 -> (s, c*s)
        A13: y1 <= 0, 0 <= y2 <= 1                     -> (0, y2)
        A23: 0 <= y1 <= 1/c, y2 >= 1                   -> (y1, 1)
        A1:  y2 <= 0, y1 + c*y2 <= 0                   -> v1
        A2:  y1 >= 1/c, y1/c + y2 >= 1 + 1/c^2        -> v2
        A3:  y1 <= 0, y2 >= 1                          -> v3

    The pieces overlap only on their boundaries, where the projections agree;
    ties resolve to the first match in the order listed above.
    """
    if g.x is not None:
        raise ValueError("region table applies to the full triangle (x must be None)")
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ValueError("y must be a 2-vector")
    c = g.c
    y1, y2 = float(y[0]), float(y[1])
    if y1 >= 0.0 and y2 <= 1.0 and y2 >= c * y1:
        return y.copy(), RegionLabel.INTERIOR
    s = (y1 + c * y2) / (1.0 + c * c)
    if y2 <= c * y1 and 0.0 <= s <= 1.0 / c:
        return np.array([s, c * s]), RegionLabel.A12
    if y1 <= 0.0 and 0.0 <= y2 <= 1.0:
        return np.array([0.0, y2]), RegionLabel.A13
    if 0.0 <= y1 <= 1.0 / c and y2 >= 1.0:
        return np.array([y1, 1.0]), RegionLabel.A23
    if y2 <= 0.0 and y1 + c * y2 <= 0.0:
        return g.v1, RegionLabel.A1
    if y1 >= 1.0 / c and y1 / c + y2 >= g.alpha_c:
        return g.v2, RegionLabel.A2
    if y1 <= 0.0 and y2 >= 1.0:
        return g.v3, RegionLabel.A3
    raise AssertionError(f"region table failed to classify {y!r}")  # unreachable


# points per block of the min-norm-point projection: the block's (b, K, d)
# temporaries stay small whatever the number of points
_POLYTOPE_BLOCK = 1 << 12

# weights at or below this count as zero when the minimiser leaves the simplex
_WEIGHT_FLOOR = 1e-12

# bound on max_i <y - q, v_i - q> / (1 + ||y||) that certifies a min-norm point q,
# and on the relative KKT residuals that certify a cone projection
_CERTIFICATE_TOL = 1e-9


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right, one elementwise add per term.

    Unlike a BLAS product or a pairwise reduction, every entry rounds the
    same way whatever the other rows, so a row projected alone equals the
    same row inside any batch, bit for bit.
    """
    total = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        total += x[..., j]
    return total


class _MinNormPoint:
    """Wolfe's min-norm-point projection onto a polytope, many points at once.

    Each point keeps its own active vertex mask and convex weights; the
    current iterate is the combination p = sum_k a_k v_k.  The affine
    minimiser over an active set A is the solution of the bordered system
    [[V_A V_A^T, 1], [1^T, 0]] [a; mu] = [V_A y; 1], whose matrix depends on
    A alone, so the weights are an affine map a = B_A (y - c) + b_A, with c
    the vertex centroid, computed once per distinct active set (by
    pseudo-inverse, which also covers affinely dependent sets) and cached
    for the life of the object.  A cached map is a function of its active
    set alone, so results do not depend on what the object projected
    before, and one object may serve concurrent callers.
    """

    size = _POLYTOPE_BLOCK

    def __init__(self, P: ConvexPolytope):
        v = P.vertices
        self._v = v
        # centred and scaled vertices keep the bordered system well scaled
        self._center = v.mean(axis=0)
        centred = v - self._center
        self._scale = float(np.max(np.abs(centred))) or 1.0
        self._unit = centred / self._scale
        self._max_iter = 64 * len(v) + 256
        self._affine = {}

    def _affine_weights(self, mask: np.ndarray, yc: np.ndarray) -> np.ndarray:
        """Affine minimiser weights of each row over its active set, zero off it."""
        packed = np.packbits(mask, axis=1)
        # one opaque byte string per row sorts far faster than unique(axis=0)
        keys = packed.view(f"V{packed.shape[1]}").ravel()
        unique, first, group = np.unique(keys, return_index=True, return_inverse=True)
        entries = [self._cached_map(key.tobytes(), mask[i]) for key, i in zip(unique, first)]
        linear = np.stack([entry[0] for entry in entries])[group]
        offset = np.stack([entry[1] for entry in entries])[group]
        return _sum_last(linear * yc[:, None, :]) + offset

    def _cached_map(self, key: bytes, active: np.ndarray):
        entry = self._affine.get(key)
        if entry is None:
            # concurrent callers may both compute a missing entry; the two
            # are equal, so either may stay
            entry = self._affine[key] = self._affine_map(active)
        return entry

    def _affine_map(self, active: np.ndarray):
        """(B, b) with a = B (y - center) + b the affine minimiser weights over ``active``."""
        idx = np.flatnonzero(active)
        s = len(idx)
        unit = self._unit[idx]
        system = np.ones((s + 1, s + 1))
        system[:s, :s] = unit @ unit.T
        system[s, s] = 0.0
        inverse = np.linalg.pinv(system)
        B = np.zeros_like(self._v)
        b = np.zeros(len(self._v))
        B[idx] = inverse[:s, :s] @ unit / self._scale
        b[idx] = inverse[:s, s]
        return B, b

    def project(self, y: np.ndarray, first: int) -> np.ndarray:
        """Project the (d, b) block of coordinate rows ``y``; errors count points from ``first``."""
        # iterate on row-major (b, d) points; the result is their transpose
        y = np.ascontiguousarray(y.T)
        v = self._v
        with np.errstate(over="ignore"):
            threshold = _CERTIFICATE_TOL * (1.0 + np.sqrt(_sum_last(y * y)))
            finite = np.isfinite(threshold)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ProjectionError(f"point {first + i} {y[i].tolist()!r} has no finite norm")
            # start from the nearest vertex
            offset = v[None, :, :] - y[:, None, :]
            nearest = np.argmin(_sum_last(offset * offset), axis=1)
        out = np.empty_like(y)
        rows = np.arange(len(y))
        yc = y - self._center
        mask = np.zeros((len(y), len(v)), dtype=bool)
        mask[rows, nearest] = True
        weights = mask.astype(float)
        for _ in range(self._max_iter):
            p = _sum_last(weights[:, None, :] * v.T[None, :, :])
            # certificate and gap test at once: <y - p, v_i - p> over all i
            gaps = _sum_last((y - p)[:, None, :] * (v[None, :, :] - p[:, None, :]))
            entering = np.argmax(gaps, axis=1)
            residual = gaps[np.arange(len(gaps)), entering]
            done = residual <= threshold
            out[rows[done]] = p[done]
            live = ~done
            if not live.any():
                return out.T
            rows, y, yc, threshold, residual = rows[live], y[live], yc[live], threshold[live], residual[live]
            mask, weights, entering = mask[live], weights[live], entering[live]
            every = np.arange(len(rows))
            stuck = mask[every, entering]
            if stuck.any():
                i = int(np.argmax(stuck))
                raise ProjectionError(
                    f"point {first + rows[i]}: min-norm point stuck with the best vertex "
                    f"already active: residual {residual[i]:.3e} > threshold {threshold[i]:.3e}"
                )
            mask[every, entering] = True
            self._minor_cycles(mask, weights, yc)
        raise ProjectionError(
            f"point {first + rows[0]}: min-norm point did not certify within "
            f"{self._max_iter} iterations: residual {residual[0]:.3e} > threshold {threshold[0]:.3e}"
        )

    def _minor_cycles(self, mask: np.ndarray, weights: np.ndarray, yc: np.ndarray):
        """Move each row to the affine minimiser of its active set, in place.

        Where the minimiser leaves the simplex, step from the current weights
        toward it until a weight reaches zero, drop that vertex and repeat,
        until the minimiser is strictly positive or one vertex is left.
        """
        cycling = np.arange(len(mask))
        while len(cycling):
            active, current = mask[cycling], weights[cycling]
            candidate = self._affine_weights(active, yc[cycling])
            inside = np.all((candidate > _WEIGHT_FLOOR) | ~active, axis=1)
            accepted = candidate[inside]
            weights[cycling[inside]] = accepted / _sum_last(accepted)[:, None]
            cycling, active, current, candidate = (
                cycling[~inside], active[~inside], current[~inside], candidate[~inside]
            )
            shrinking = active & (candidate < current)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrinking, current / (current - candidate), np.inf)
            step = np.minimum(1.0, ratios.min(axis=1))[:, None]
            current = (1.0 - step) * current + step * candidate
            keep = active & (current > _WEIGHT_FLOOR)
            empty = np.flatnonzero(~keep.any(axis=1))
            keep[empty, np.argmax(np.where(active[empty], current[empty], -np.inf), axis=1)] = True
            current = np.where(keep, current, 0.0)
            mask[cycling] = keep
            weights[cycling] = current / _sum_last(current)[:, None]
            cycling = cycling[keep.sum(axis=1) > 1]


@lru_cache(maxsize=16)
def _min_norm_point(P: ConvexPolytope) -> _MinNormPoint:
    """The projector onto ``P``, shared so its active-set maps outlive one call."""
    return _MinNormPoint(P)


def _block_projector(P: ConvexPolytope, rows: int):
    """The projector for ``P`` and a call of ``rows`` points: a new edge search
    in the plane, the shared min-norm-point solver elsewhere.  ``project(y,
    first)`` projects a (d, b) block of coordinate rows, b <= ``size``, and
    counts points from ``first`` in its errors.
    """
    if P.dim == 2:
        return _PolygonBlocks(P, min(max(rows, 1), _PROJECT_BLOCK))
    return _min_norm_point(P)


def _project_rows(P: ConvexPolytope, Y: np.ndarray) -> np.ndarray:
    """Projections of the rows of the (n, d) array ``Y``, one projector block at a time."""
    projector = _block_projector(P, len(Y))
    out = np.empty_like(Y, order="C")
    for start in range(0, len(Y), projector.size):
        rows = slice(start, start + projector.size)
        out[rows] = projector.project(Y[rows].T, start).T
    return out


def project_polytope_batch(P: ConvexPolytope, Y: np.ndarray) -> np.ndarray:
    """Euclidean projection of the rows of an (n, d) array onto a polytope in any dimension.

    In the plane this is the exact edge search of ``_PolygonBlocks``.  In any
    other dimension it runs Wolfe's min-norm-point iteration (Wolfe 1976) on
    blocks of rows, each row with its own active set.  A row leaves its
    block once its projection q, a convex combination of the vertices, is
    certified by the variational inequality

        max_i <y - q, v_i - q>  <=  1e-9 * (1 + ||y||),

    which bounds ||q - projection||^2 by the same quantity.  A row with no
    finite norm, or whose iteration gets stuck or reaches ``64 K + 256``
    iterations uncertified, raises :class:`ProjectionError` naming the row
    and its residual.  Each row's result depends on that row alone, bit for
    bit, whatever the batch it is projected in.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != P.dim:
        raise ValueError(f"Y must be an (n, {P.dim}) array")
    return _project_rows(P, Y)


def project_polytope(P: ConvexPolytope, y) -> np.ndarray:
    """Euclidean projection of one point onto a polytope in any dimension.

    One row of :func:`project_polytope_batch`, certified and raising as it does.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (P.dim,):
        raise ValueError(f"y must be a {P.dim}-vector")
    return project_polytope_batch(P, y[None, :])[0]


def normal_cone_angle_2d(P: ConvexPolytope, i: int) -> float:
    """Arc length (radians) of the normal cone of vertex ``i`` on the unit circle.

    For a polygon this is pi minus the interior angle at the vertex (the
    exterior turning angle); over all vertices the angles sum to 2*pi.  Both
    endpoints of a segment get pi.
    """
    if P.dim != 2:
        raise ValueError("normal_cone_angle_2d requires a planar polytope")
    k = P.n_vertices
    if k < 2:
        raise ValueError("normal cone angle needs at least two vertices")
    if not 0 <= i < k:
        raise ValueError(f"vertex index {i} out of range for {k} vertices")
    if k == 2:
        return math.pi
    v = P.vertices
    before = v[i] - v[(i - 1) % k]
    after = v[(i + 1) % k] - v[i]
    angle = math.atan2(
        before[0] * after[1] - before[1] * after[0], float(before @ after)
    )
    if angle <= 0.0:
        raise ValueError(f"vertex {i} is not extreme")
    return angle


def _points(thetas, name: str = "theta_star") -> np.ndarray:
    """``thetas`` as a nonempty 2-D float array of finite points; else ValueError naming ``name``."""
    try:
        points = np.array(thetas, dtype=float, ndmin=2)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numeric, got {thetas!r}") from None
    if points.ndim != 2 or points.size == 0:
        raise ValueError(f"{name} must be a point or a list of points")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{name} must be finite")
    return points


def _member_points(P: ConvexPolytope, thetas, name: str = "theta_star") -> np.ndarray:
    """``thetas`` as an (m, d) array of finite points of ``P``; else ValueError naming ``name``.

    A point belongs to ``P`` if it lies within ``MEMBERSHIP_TOL`` of its projection.
    """
    points = _points(thetas, name)
    if points.shape[1] != P.dim:
        raise ValueError(f"{name} must have dimension {P.dim}")
    outside = np.linalg.norm(_project_rows(P, points) - points, axis=1) > MEMBERSHIP_TOL
    if np.any(outside):
        raise ValueError(f"{name} {points[int(np.argmax(outside))]} must belong to the polytope")
    return points


def tangent_cone_2d(P: ConvexPolytope, theta) -> Cone2D:
    """Tangent cone of a planar polytope at ``theta``, up to rotation.

    Returns the full plane at interior points, a halfplane on the relative
    interior of a polygon edge, a wedge with the interior angle at a polygon
    vertex, a ray at segment endpoints, and the origin cone for a one-point
    polytope.  Membership and case classification use ``MEMBERSHIP_TOL``.
    A point in the relative interior of a segment has a full line as tangent
    cone, which this classification cannot express; that case raises.
    """
    if P.dim != 2:
        raise ValueError("tangent_cone_2d requires a planar polytope")
    (theta,) = _member_points(P, [theta], "theta")
    v = P.vertices
    k = P.n_vertices
    if k == 1:
        return Cone2D(ConeKind.POINT, 0.0)
    if k == 2:
        if min(np.linalg.norm(v[0] - theta), np.linalg.norm(v[1] - theta)) <= MEMBERSHIP_TOL:
            return Cone2D(ConeKind.RAY, 0.0)
        raise ValueError(
            "tangent cone at the relative interior of a segment is a full line, "
            "which Cone2D does not represent"
        )
    for i in range(k):
        if float(np.linalg.norm(v[i] - theta)) <= MEMBERSHIP_TOL:
            return Cone2D(ConeKind.WEDGE, math.pi - normal_cone_angle_2d(P, i))
    for edge in _edge_chain(k):
        (foot,) = _project_rows(ConvexPolytope(v[list(edge)]), theta[None])
        if float(np.linalg.norm(foot - theta)) <= MEMBERSHIP_TOL:
            return Cone2D(ConeKind.HALFPLANE, math.pi)
    return Cone2D(ConeKind.FULL, 2.0 * math.pi)


# least-squares coefficients at or above this keep a candidate active set feasible
_CONE_COEF_FLOOR = -1e-12


def _left_sum(terms, out: np.ndarray, tmp: np.ndarray):
    """``out`` = the sum of row * scale over the pairs in ``terms``, left to right; ``tmp`` holds each product."""
    (row, scale), *rest = terms
    np.multiply(row, scale, out=out)
    for row, scale in rest:
        out += np.multiply(row, scale, out=tmp)


def project_cone_nonneg_batch(generators, Z: np.ndarray) -> np.ndarray:
    """Projection of the rows of an (n, d) array ``Z`` onto cone{g_1, ..., g_m}.

    Solves min ||z - sum_j lambda_j g_j|| over lambda >= 0 exactly, by
    enumerating candidate active sets: the optimal projection is achieved by
    an unconstrained least-squares fit on some subset of generators whose
    coefficients come out nonnegative (at least -1e-12), so taking the best
    feasible fit over all subsets of at most d generators is exact.  The
    empty subset, the origin, is the first best; a later subset replaces it
    only where its squared distance is strictly smaller.

    Each subset's pseudo-inverse P is computed once per call.  Rows are
    projected in blocks of ``_PROJECT_BLOCK``, held as (d, b) coordinate rows
    in scratch allocated once per call, and every sum runs left to right,
    one elementwise pass per term: coef_j = z_0 P[0, j] + z_1 P[1, j] + ...,
    proj_i = sum_j coef_j A[j, i] and d2 = sum_i (z_i - proj_i)^2.  So a row
    projected alone gives the same bits as inside any batch, and
    coordinate-axis generators, whose products are exact, give exact feet.
    The result is a new C-contiguous (n, d) array.  A row with no finite
    distance to the cone (NaN or infinite coordinates, or an overflowing
    squared distance) raises :class:`ProjectionError` naming its index.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim != 2 or G.shape[0] < 1:
        raise ValueError("generators must be a nonempty m x d array")
    if not np.all(np.isfinite(G)):
        raise ValueError("generators must be finite")
    m, d = G.shape
    if m > MAX_CONE_GENERATORS:
        raise ValueError(
            f"subset enumeration supports at most {MAX_CONE_GENERATORS} generators, got {m}"
        )
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != d:
        raise ValueError(f"Z must be an (n, {d}) array")
    n = len(Z)
    size = min(max(n, 1), _PROJECT_BLOCK)
    # an optimal active set can always be chosen linearly independent
    subsets = (
        (A, np.linalg.pinv(A))
        for k in range(1, min(m, d) + 1)
        for A in (G[list(subset)] for subset in itertools.combinations(range(m), k))
    )
    if n > size:
        # kept for the later blocks; one block reads them as they come
        subsets = list(subsets)
    # coordinate rows of z, the best foot, the candidate foot and its
    # coefficients; t is a product term, later the int64 blend bits, and d2
    # later the int64 select mask
    z_rows, best, proj = np.empty((3, d, size))
    coefs = np.empty((min(m, d), size))
    t_row, d2_row, best_d2_row = np.empty((3, size))
    feasible_row, better_row = np.empty((2, size), dtype=bool)
    out = np.empty((n, d))
    for first in range(0, n, size):
        b = min(size, n - first)
        z, x, p = z_rows[:, :b], best[:, :b], proj[:, :b]
        t, d2, best_d2 = t_row[:b], d2_row[:b], best_d2_row[:b]
        feasible, better = feasible_row[:b], better_row[:b]
        bits, mask = t.view(np.int64), d2.view(np.int64)
        np.copyto(z, Z[first : first + b].T)
        x.fill(0.0)
        # rows with no finite distance go through inf/NaN arithmetic, then raise
        with np.errstate(invalid="ignore", over="ignore"):
            _left_sum(zip(z, z), best_d2, t)
            for A, pinv in subsets:
                coef = coefs[: len(A), :b]
                for c, column in zip(coef, pinv.T):
                    _left_sum(zip(z, column), c, t)
                np.greater_equal(coef[0], _CONE_COEF_FLOOR, out=feasible)
                for c in coef[1:]:
                    feasible &= np.greater_equal(c, _CONE_COEF_FLOOR, out=better)
                if not feasible.any():
                    continue
                for pi, column in zip(p, A.T):
                    _left_sum(zip(coef, column), pi, t)
                np.subtract(z[0], p[0], out=d2)
                np.square(d2, out=d2)
                for zi, pi in zip(z[1:], p[1:]):
                    np.subtract(zi, pi, out=t)
                    d2 += np.square(t, out=t)
                np.less(d2, best_d2, out=better)
                better &= feasible
                np.copyto(best_d2, d2, where=better)
                # x = foot where better, as x ^= (x ^ foot) & -better
                np.negative(better.view(np.int8), out=mask)
                for xc, pc in zip(x.view(np.int64), p.view(np.int64)):
                    np.bitwise_xor(xc, pc, out=bits)
                    bits &= mask
                    xc ^= bits
        finite = np.isfinite(best_d2, out=better)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ProjectionError(
                f"point {first + i} {Z[first + i].tolist()!r} has no finite distance to the cone"
            )
        out[first : first + b] = x.T
    return out


def project_cone_nonneg(generators, z) -> np.ndarray:
    """Projection of ``z`` onto the cone spanned nonnegatively by ``generators``.

    Exact subset-enumeration nonnegative least squares; the result additionally
    passes a KKT check (residual has nonpositive inner product with every
    generator, and is orthogonal to the projection) at the certificate
    tolerance ``_CERTIFICATE_TOL``.
    """
    G = np.asarray(generators, dtype=float)
    z = np.asarray(z, dtype=float)
    if G.ndim != 2 or z.shape != (G.shape[1],):
        raise ValueError("z must be a vector matching the generator dimension")
    p = project_cone_nonneg_batch(G, z[None, :])[0]
    r = z - p
    z_norm = float(np.linalg.norm(z))
    norms = np.linalg.norm(G, axis=1)
    norms[norms == 0.0] = 1.0
    kkt_dual = float(np.max((G @ r) / norms))
    kkt_comp = abs(float(p @ r))
    # written so that a NaN residual fails
    if not (
        kkt_dual <= _CERTIFICATE_TOL * (1.0 + z_norm)
        and kkt_comp <= _CERTIFICATE_TOL * (1.0 + z_norm * z_norm)
    ):
        raise ProjectionError(
            f"cone projection failed KKT check: dual residual {kkt_dual:.3e}, "
            f"complementarity {kkt_comp:.3e}, tol {_CERTIFICATE_TOL:.3e}"
        )
    return p
