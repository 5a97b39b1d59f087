"""Convex polytopes in vertex form: projections, faces, and cones.

Polytopes are given by their vertices, conv{v_1, ..., v_K}.  One function,
``_block_projector``, picks the projector for a polytope: in the plane an
exact edge search (``_PolygonBlocks``), in any other dimension Wolfe's
min-norm-point iteration (``_MinNormPoint``), each point with its own active
set and a certified result.  Cones given by generators have an exact
projection by subset enumeration (``_ConeBlocks``).  All three are block
projectors: ``project(y, first)`` maps a (d, b) block of coordinate rows,
b <= ``size``, to a (d, b) array and names a bad point by its index from
``first``; ``_project_rows`` drives any of them over the rows of an (n, d)
array, and ``montecarlo``'s one loss loop over a chunk's draws, summing the
squared rows of each result left to right with ``_left_sum``, so the
result's memory layout is free.  A point projected alone gives the same
bits as inside any batch.
The running triangle family also has a region-table projector.  Tangent and
normal cones are classified for planar polytopes.

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


def _is_real(value) -> bool:
    """True for a real number other than a bool: Python's and numpy's ints and floats, Fractions."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value) -> float:
    """``value`` as a float if it is a real number other than a bool, else NaN, which every range check refuses."""
    try:
        return float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        return math.nan


def _real_array(value, name: str, ndmin: int = 0) -> np.ndarray:
    """``value`` as a float array of at least ``ndmin`` dimensions; else ValueError naming ``name``.

    An ndarray of integer or float dtype passes, and a float64 one with at
    least ``ndmin`` dimensions comes back as itself, uncopied, so callers
    that store the result copy it; missing leading axes are added as a view.
    Any other value passes if every entry is a real number other than a
    bool, as :func:`_real` decides for a scalar: numpy would read
    ``[1.5, True]`` as [1.5, 1.0] and ``"0.5"`` as 0.5, and cut a complex
    value to its real part.  ``None``, text, complex, dicts, ragged lists
    and integers beyond the float range are refused.
    """
    array = value
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        try:
            array = np.array(value, dtype=object)
            array = array.astype(float) if all(map(_is_real, array.flat)) else None
        except (ValueError, OverflowError):  # a ragged sequence, or an int beyond the float range
            array = None
        if array is None:
            raise ValueError(f"{name} must be numeric, got {value!r}")
    array = np.asarray(array, dtype=float)
    return array if array.ndim >= ndmin else array.reshape((1,) * (ndmin - array.ndim) + array.shape)


def _integer(name: str, value) -> int:
    """``value`` as an int, if it is integral and not a bool; else ValueError naming ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        arr = np.array(_real_array(vertices, "vertices"))
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
    LINE = "line"
    WEDGE = "wedge"
    HALFPLANE = "halfplane"
    FULL = "full"


@dataclass(frozen=True)
class Cone2D:
    """Closed convex cone in the plane, described by the arc of its directions.

    ``apex_angle`` is the arc measure (radians) of the cone's unit directions:
    0 for a point, a ray or a line (whose directions are two opposite
    points), the opening angle in (0, pi) for a wedge, pi for a halfplane,
    and 2*pi for the full plane.
    """

    kind: ConeKind
    apex_angle: float

    def __post_init__(self):
        angle = _real(self.apex_angle)
        expected = {
            ConeKind.POINT: 0.0,
            ConeKind.RAY: 0.0,
            ConeKind.LINE: 0.0,
            ConeKind.HALFPLANE: math.pi,
            ConeKind.FULL: 2.0 * math.pi,
        }
        if self.kind is ConeKind.WEDGE:
            if not 0.0 < angle < math.pi:
                raise ValueError(f"wedge apex angle must lie in (0, pi), got {self.apex_angle!r}")
        elif not abs(angle - expected[self.kind]) <= 1e-12:
            raise ValueError(f"apex angle {self.apex_angle!r} inconsistent with kind {self.kind}")
        object.__setattr__(self, "apex_angle", angle)


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


def _select(x: np.ndarray, foot: np.ndarray, better: np.ndarray, bits: np.ndarray, mask: np.ndarray):
    """x = foot where ``better``, as x ^= (x ^ foot) & -better on the int64 bits of the (d, b) rows.

    ``bits`` and ``mask`` are int64 scratch rows: a masked copy, whose
    branches depend on the data, costs more than these three plain passes.
    """
    np.negative(better.view(np.int8), out=mask)
    for xc, fc in zip(x.view(np.int64), foot.view(np.int64)):
        np.bitwise_xor(xc, fc, out=bits)
        bits &= mask
        xc ^= bits


def _refuse(finite: np.ndarray, y: np.ndarray, first: int, target: str):
    """Raise :class:`ProjectionError` for the first point of the (d, b) block ``y`` that is not ``finite``."""
    if not finite.all():
        i = int(np.argmin(finite))
        raise ProjectionError(f"point {first + i} {y[:, i].tolist()!r} has no finite distance to the {target}")


class _PolygonBlocks:
    """Projection onto a planar polytope, one block of points at a time.

    The polytope is the chain of edges of :func:`_edge_chain`; a point has
    none, and its foot is its vertex.  Holds scratch for a call of ``rows``
    points, in blocks of up to ``size``, so it is not safe for concurrent use:
    :func:`_block_projector` makes a new one per call.  The scratch is seven
    float rows, whatever K: the offsets y - v, which later hold an edge's
    foot; t, also read as int64 bits; the squared distance, also read as the
    int64 select mask; the best squared distance so far; and the two result
    rows.  Two flag rows hold inside and better.
    """

    def __init__(self, P: ConvexPolytope, rows: int):
        v = P.vertices
        edge = np.roll(v, -1, axis=0) - v
        len_sq = np.einsum("ij,ij->i", edge, edge)
        self._closed = len(v) >= 3
        self._point = v.T if len(v) == 1 else None
        self._edges = [
            (v[i, 0], v[i, 1], edge[i, 0], edge[i, 1], len_sq[i]) for i, _ in _edge_chain(len(v))
        ]
        self.size = size = min(max(rows, 1), _PROJECT_BLOCK)
        self._floats = np.empty((7, size))
        self._flags = np.empty((2, size), dtype=bool)

    # rows with no finite distance go through inf/NaN arithmetic, then raise
    @np.errstate(invalid="ignore", over="ignore")
    def project(self, y: np.ndarray, first: int) -> np.ndarray:
        """Project the (2, b) block of coordinate rows ``y``, into a view of the scratch.

        Per edge it evaluates the foot v + t e, t = clip(<y - v, e> / ||e||^2,
        0, 1); on a polygon it keeps the foot of the last edge whose distance
        is strictly below the best so far, and points inside stay.  It refuses
        a point with no finite distance to the set: NaN or infinite
        coordinates, or, on a polygon, an overflowing squared distance.
        """
        b = y.shape[1]
        y0, y1 = y
        d, x = self._floats[:2, :b], self._floats[5:, :b]
        (d0, d1), (x0, x1) = d, x
        t, d2, best = self._floats[2:5, :b]
        inside, better = flags = self._flags[:, :b]
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
                _select(x, d, better, bits, mask)
        if closed:
            finite = np.isfinite(best, out=better)
            _select(x, y, inside, bits, mask)
        else:
            # a point or a segment: the one foot is the projection, and its
            # distance may overflow, since no comparison needs it
            if self._point is not None:
                # the vertex's own bits, signed zeros included
                np.copyto(x, self._point)
            finite = np.isfinite(y, out=flags).all(axis=0)
            finite &= np.isfinite(x0, out=inside)
        _refuse(finite, y, first, "polygon")
        return x


def project_polygon_2d_batch(P: ConvexPolytope, Y: np.ndarray) -> np.ndarray:
    """Planar :func:`project_polytope_batch` for an (n, 2) array of points, raising as it does."""
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
    y = _real_array(y, "y")
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


# points per block of the min-norm-point projection: a block's (K, b) rows
# of weights and gaps and its (d + 1) K rows of gathered affine maps stay
# small whatever the number of points; 2^14 measured no faster on the cube
# and about 1 MB more peak memory
_POLYTOPE_BLOCK = 1 << 12

# weights at or below this count as zero when the minimiser leaves the simplex
_WEIGHT_FLOOR = 1e-12

# bound on max_i <y - q, v_i - q> / (1 + ||y||) that certifies a min-norm point q,
# and on the relative KKT residuals that certify a cone projection
_CERTIFICATE_TOL = 1e-9

# vertices per word of an active-set key: a word, below 2^32, and a group
# index, below a block's size, share one int64
_KEY_BITS = 32


def _normalised(w: np.ndarray) -> np.ndarray:
    """The (K, b) rows ``w`` over their column sums, summed top to bottom one row at a time."""
    total = w[0].copy()
    for row in w[1:]:
        total += row
    return w / total


def _first_argmax(x: np.ndarray) -> np.ndarray:
    """``np.argmax(x, axis=0)`` of a (K, b) array: each column's first maximum, or its first NaN.

    numpy reduces an argmax along the strided axis one column at a time;
    the max, the compare and the weighted max here run across columns: 34 µs
    against 128 µs at K = 8 and b = 4096 on a 2-vCPU Xeon VM.  The first hit
    in a column has the largest weight K - k.
    """
    top = x.max(axis=0)
    hit = x == top
    nan = np.isnan(top)
    if nan.any():
        hit[:, nan] = np.isnan(x[:, nan])
    weights = np.arange(len(x), 0, -1, dtype=np.min_scalar_type(len(x)))
    return len(x) - (hit * weights[:, None]).max(axis=0).astype(np.intp)


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

    A block stays in the projector protocol's coordinate rows: points, p
    and y - c are (d, b) arrays, and masks, weights and gaps (K, b) ones.
    Every sum over coordinates or vertices adds whole rows left to right,
    one elementwise add per term.  Unlike a BLAS product or a pairwise
    reduction, each point then rounds the same way whatever the other
    points, so a point projected alone equals the same point inside any
    batch, bit for bit.
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
        # row w holds 2^(k mod 32) at each vertex k of key word w
        k = np.arange(len(v))
        self._key_weights = np.zeros((-(-len(v) // _KEY_BITS), len(v)))
        self._key_weights[k // _KEY_BITS, k] = np.ldexp(1.0, k % _KEY_BITS)

    def _groups(self, active: np.ndarray):
        """Group the columns of the (K, m) mask ``active`` by their active set.

        Returns ``(first, group, keys)``: a column of each distinct set,
        each column's index into ``first``, and each set's key, the tuple of
        its words of 32 vertex bits.  Each word, shifted in below the groups
        of the words before it, costs one integer argsort, whatever K.
        """
        # sums of distinct powers of two below 2^32 are exact in any order
        words = (self._key_weights @ active).astype(np.int64)
        group = np.zeros(active.shape[1], dtype=np.int64)
        for word in words:
            key = (group << _KEY_BITS) | word
            order = np.argsort(key)
            ranked = key[order]
            new = np.empty(len(key), dtype=bool)
            new[:1] = True
            np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
            group[order] = np.cumsum(new) - 1
        first = order[new]
        return first, group, zip(*words.take(first, axis=1).tolist())

    def _affine_weights(self, active: np.ndarray, yc: np.ndarray) -> np.ndarray:
        """Affine minimiser weights of each column over its active set, zero off it, as (K, m) rows."""
        first, group, keys = self._groups(active)
        maps = np.array([self._cached_map(key, active, i) for key, i in zip(keys, first.tolist())])
        # B's column for each coordinate, then b: d + 1 (K, m) blocks
        terms = np.take(maps.T, group, axis=1).reshape(len(yc) + 1, len(active), -1)
        terms[:-1] *= yc[:, None, :]
        weights = terms[0]
        for term in terms[1:]:
            weights += term
        return weights

    def _cached_map(self, key: tuple, active: np.ndarray, i: int) -> np.ndarray:
        """The affine map of column ``i`` of ``active``, whose key words are ``key``."""
        entry = self._affine.get(key)
        if entry is None:
            # concurrent callers may both compute a missing entry; the two
            # are equal, so either may stay
            entry = self._affine[key] = self._affine_map(active[:, i])
        return entry

    def _affine_map(self, active: np.ndarray) -> np.ndarray:
        """B's columns, then b, concatenated, with a = B (y - center) + b the
        affine minimiser weights over ``active``."""
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
        return np.concatenate([B.T.ravel(), b])

    def project(self, y: np.ndarray, first: int) -> np.ndarray:
        """Project the (d, b) block of coordinate rows ``y``; errors count points from ``first``."""
        y = np.ascontiguousarray(y)
        v = self._v
        with np.errstate(over="ignore"):
            norm_sq = y[0] * y[0]
            for row in y[1:]:
                norm_sq += row * row
            threshold = _CERTIFICATE_TOL * (1.0 + np.sqrt(norm_sq))
            finite = np.isfinite(threshold)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ProjectionError(f"point {first + i} {y[:, i].tolist()!r} has no finite norm")
            # start from the nearest vertex
            dist = np.square(v[:, :1] - y[0])
            for j in range(1, len(y)):
                dist += np.square(v[:, j : j + 1] - y[j])
            nearest = np.argmin(dist, axis=0)
        out = np.empty_like(y)
        rows = np.arange(y.shape[1])
        yc = y - self._center[:, None]
        mask = np.zeros((len(v), len(rows)), dtype=bool)
        mask[nearest, rows] = True
        weights = mask.astype(float)
        for _ in range(self._max_iter):
            p = v[0][:, None] * weights[0]
            term = np.empty_like(p)
            for vk, wk in zip(v[1:], weights[1:]):
                p += np.multiply(vk[:, None], wk, out=term)
            # certificate and gap test at once: <y - p, v_k - p> over all k
            r = y - p
            gaps = v[:, :1] - p[0]
            gaps *= r[0]
            term = np.empty_like(gaps)
            for j in range(1, len(y)):
                gaps += np.multiply(np.subtract(v[:, j : j + 1], p[j], out=term), r[j], out=term)
            entering = _first_argmax(gaps)
            every = np.arange(len(rows))
            residual = gaps[entering, every]
            done = residual <= threshold
            if done.any():
                # take(axis=1) gathers columns faster than fancy indexing
                finished, live = np.flatnonzero(done), np.flatnonzero(~done)
                out[:, rows[finished]] = p.take(finished, axis=1)
                if not len(live):
                    return out
                rows, threshold, residual, entering = rows[live], threshold[live], residual[live], entering[live]
                y, yc, mask, weights = (x.take(live, axis=1) for x in (y, yc, mask, weights))
                every = every[: len(rows)]
            stuck = mask[entering, every]
            if stuck.any():
                i = int(np.argmax(stuck))
                raise ProjectionError(
                    f"point {first + rows[i]}: min-norm point stuck with the best vertex "
                    f"already active: residual {residual[i]:.3e} > threshold {threshold[i]:.3e}"
                )
            mask[entering, every] = True
            self._minor_cycles(mask, weights, yc)
        raise ProjectionError(
            f"point {first + rows[0]}: min-norm point did not certify within "
            f"{self._max_iter} iterations: residual {residual[0]:.3e} > threshold {threshold[0]:.3e}"
        )

    def _minor_cycles(self, mask: np.ndarray, weights: np.ndarray, yc: np.ndarray):
        """Move each column to the affine minimiser of its active set, in place.

        Where the minimiser leaves the simplex, step from the current weights
        toward it until a weight reaches zero, drop that vertex and repeat,
        until the minimiser is strictly positive or one vertex is left.
        """
        cycling = np.arange(mask.shape[1])
        # the first pass reads the whole block in place
        active, current, centred = mask, weights, yc
        while True:
            candidate = self._affine_weights(active, centred)
            inside = np.all((candidate > _WEIGHT_FLOOR) | ~active, axis=0)
            accepted, rest = np.flatnonzero(inside), np.flatnonzero(~inside)
            weights[:, cycling[accepted]] = _normalised(candidate.take(accepted, axis=1))
            if not len(rest):
                return
            cycling = cycling[rest]
            active, current, candidate = (x.take(rest, axis=1) for x in (active, current, candidate))
            shrinking = active & (candidate < current)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(shrinking, current / (current - candidate), np.inf)
            step = np.minimum(1.0, ratios.min(axis=0))
            current = (1.0 - step) * current + step * candidate
            keep = active & (current > _WEIGHT_FLOOR)
            empty = np.flatnonzero(~keep.any(axis=0))
            keep[np.argmax(np.where(active[:, empty], current[:, empty], -np.inf), axis=0), empty] = True
            current = _normalised(np.where(keep, current, 0.0))
            mask[:, cycling] = keep
            weights[:, cycling] = current
            more = np.flatnonzero(keep.sum(axis=0) > 1)
            if not len(more):
                return
            cycling = cycling[more]
            active, current, centred = keep.take(more, axis=1), current.take(more, axis=1), yc.take(cycling, axis=1)


@lru_cache(maxsize=16)
def _min_norm_point(P: ConvexPolytope) -> _MinNormPoint:
    """The projector onto ``P``, shared so its active-set maps outlive one call."""
    return _MinNormPoint(P)


def _block_projector(P: ConvexPolytope, rows: int):
    """The projector for ``P`` and a call of ``rows`` points: a new
    ``_PolygonBlocks`` in the plane, the shared ``_MinNormPoint`` elsewhere.
    Like ``_ConeBlocks``, each maps a (d, b) block of coordinate rows, b <=
    ``size``, by ``project(y, first)`` to a (d, b) array, possibly a view of
    its scratch, and counts points from ``first`` in its errors.
    """
    if P.dim == 2:
        return _PolygonBlocks(P, rows)
    return _min_norm_point(P)


def _project_rows(projector, Y: np.ndarray) -> np.ndarray:
    """Projections of the rows of the (n, d) array ``Y``, one ``projector`` block at a time, as a new C-ordered array."""
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
    Y = _real_array(Y, "Y")
    if Y.ndim != 2 or Y.shape[1] != P.dim:
        raise ValueError(f"Y must be an (n, {P.dim}) array")
    return _project_rows(_block_projector(P, len(Y)), Y)


def project_polytope(P: ConvexPolytope, y) -> np.ndarray:
    """Euclidean projection of one point onto a polytope in any dimension.

    One row of :func:`project_polytope_batch`, certified and raising as it does.
    """
    y = _real_array(y, "y")
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
    i = _integer("i", i)
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
    points = _real_array(thetas, name, ndmin=2)
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
    outside = np.linalg.norm(project_polytope_batch(P, points) - points, axis=1) > MEMBERSHIP_TOL
    if np.any(outside):
        raise ValueError(f"{name} {points[int(np.argmax(outside))]} must belong to the polytope")
    return points


def tangent_cone_2d(P: ConvexPolytope, theta) -> Cone2D:
    """Tangent cone of a planar polytope at ``theta``, up to rotation.

    Returns the full plane at interior points, a halfplane on the relative
    interior of a polygon edge, a wedge with the interior angle at a polygon
    vertex, a ray at segment endpoints, a line on the relative interior of a
    segment, and the origin cone for a one-point polytope.  Membership and
    case classification use ``MEMBERSHIP_TOL``.
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
        return Cone2D(ConeKind.LINE, 0.0)
    for i in range(k):
        if float(np.linalg.norm(v[i] - theta)) <= MEMBERSHIP_TOL:
            return Cone2D(ConeKind.WEDGE, math.pi - normal_cone_angle_2d(P, i))
    for edge in _edge_chain(k):
        (foot,) = project_polytope_batch(ConvexPolytope(v[list(edge)]), theta[None])
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


class _ConeBlocks:
    """Projection onto cone{g_1, ..., g_m} by subset enumeration, one block of points at a time.

    Holds each subset's pseudo-inverse and scratch for ``size`` points, so
    :func:`project_cone_nonneg_batch` makes a new one per call.  The product
    term row doubles as the select bits; a fourth float row holds their mask.
    """

    def __init__(self, G: np.ndarray, rows: int):
        m, d = G.shape
        # an optimal active set can always be chosen linearly independent
        self._subsets = [
            (A, np.linalg.pinv(A))
            for k in range(1, min(m, d) + 1)
            for A in (G[list(subset)] for subset in itertools.combinations(range(m), k))
        ]
        self.size = size = min(max(rows, 1), _PROJECT_BLOCK)
        self._rows = np.empty((3, d, size))
        self._coefs = np.empty((min(m, d), size))
        self._floats = np.empty((4, size))
        self._flags = np.empty((2, size), dtype=bool)

    # rows with no finite distance go through inf/NaN arithmetic, then raise
    @np.errstate(invalid="ignore", over="ignore")
    def project(self, y: np.ndarray, first: int) -> np.ndarray:
        """Project the (d, b) block of coordinate rows ``y``, into a view of the scratch.

        Each sum runs left to right, one pass per term: with P = pinv(A), coef_j =
        z_0 P[0, j] + z_1 P[1, j] + ..., proj_i = sum_j coef_j A[j, i], d2 = sum_i (z_i - proj_i)^2.
        """
        b = y.shape[1]
        z, x, p = self._rows[:, :, :b]
        t, d2, best_d2, mask_row = self._floats[:, :b]
        feasible, better = self._flags[:, :b]
        bits, mask = t.view(np.int64), mask_row.view(np.int64)
        np.copyto(z, y)
        x.fill(0.0)
        _left_sum(zip(z, z), best_d2, t)
        for A, pinv in self._subsets:
            coef = self._coefs[: len(A), :b]
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
            _select(best_d2[None], d2[None], better, bits, mask)
            _select(x, p, better, bits, mask)
        _refuse(np.isfinite(best_d2, out=better), y, first, "cone")
        return x


def _generators(generators) -> np.ndarray:
    """``generators`` as a nonempty, finite m x d float array with m <= ``MAX_CONE_GENERATORS``; else ValueError."""
    G = _real_array(generators, "generators")
    if G.ndim != 2 or G.size == 0:
        raise ValueError("generators must be a nonempty m x d array")
    if not np.all(np.isfinite(G)):
        raise ValueError("generators must be finite")
    if len(G) > MAX_CONE_GENERATORS:
        raise ValueError(f"subset enumeration supports at most {MAX_CONE_GENERATORS} generators, got {len(G)}")
    return G


def project_cone_nonneg_batch(generators, Z: np.ndarray) -> np.ndarray:
    """Projection of the rows of an (n, d) array ``Z`` onto cone{g_1, ..., g_m}.

    Solves min ||z - sum_j lambda_j g_j|| over lambda >= 0 exactly, by
    enumerating candidate active sets: the optimal projection is achieved by
    an unconstrained least-squares fit on some subset of generators whose
    coefficients come out nonnegative (at least -1e-12), so taking the best
    feasible fit over all subsets of at most d generators is exact.  The
    empty subset, the origin, is the first best; a later subset replaces it
    only where its squared distance is strictly smaller.

    Rows go through ``_ConeBlocks`` in blocks of ``_PROJECT_BLOCK``, whose
    sums run left to right, so a row projected alone gives the same bits as
    inside any batch, and coordinate-axis generators, whose products are
    exact, give exact feet.  The result is a new C-contiguous (n, d) array.
    A row with no finite distance to the cone (NaN or infinite coordinates,
    or an overflowing squared distance) raises :class:`ProjectionError`
    naming its index.
    """
    G = _generators(generators)
    Z = _real_array(Z, "Z")
    if Z.ndim != 2 or Z.shape[1] != G.shape[1]:
        raise ValueError(f"Z must be an (n, {G.shape[1]}) array")
    return _project_rows(_ConeBlocks(G, len(Z)), Z)


def project_cone_nonneg(generators, z) -> np.ndarray:
    """Projection of ``z`` onto the cone spanned nonnegatively by ``generators``.

    Exact subset-enumeration nonnegative least squares; the result additionally
    passes a KKT check (residual has nonpositive inner product with every
    generator, and is orthogonal to the projection) at the certificate
    tolerance ``_CERTIFICATE_TOL``.
    """
    G = _generators(generators)
    z = _real_array(z, "z")
    if z.shape != (G.shape[1],):
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
