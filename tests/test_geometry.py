"""Geometry layer tests: hulls, projections, cones.

The three projection routes (closed-form region projector for the running
triangle, the edge-walking planar projector, and the dimension-free
min-norm-point solver) are cross-checked against each other on large
random sweeps, and all projections are checked against the axioms that
characterize them: idempotency, nonexpansiveness, and the variational
inequality.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import nnls

from riskrev.geometry import (
    _POLYTOPE_BLOCK,
    _PROJECT_BLOCK,
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    ProjectionError,
    RegionLabel,
    _MinNormPoint,
    exposed_face_vertex,
    normal_cone_angle_2d,
    project_cone_nonneg,
    project_cone_nonneg_batch,
    project_polygon_2d,
    project_polygon_2d_batch,
    project_polytope,
    project_polytope_batch,
    project_segment,
    project_triangle_example,
    tangent_cone_2d,
)

C_VALUES = [0.2, 0.5, 1.0, 2.0, 5.0]

# offsets of a near-collinear quadrilateral's middle vertices from the line
# through its outer two
SLIVER_DELTAS = (1e-6, 1e-12, 1e-15, 1e-17)


def _sliver(delta):
    """Vertices (0, 0), (1, -delta), (2, -delta), (3, 0): counterclockwise for delta > 0.

    Every coordinate and every difference the hull forms is exact, so all
    four points are extreme for any delta != 0.
    """
    return [[0.0, 0.0], [1.0, -delta], [2.0, -delta], [3.0, 0.0]]


def _random_polygon(rng, k):
    while True:
        pts = rng.normal(size=(k, 2))
        poly = ConvexPolytope(pts)
        if poly.n_vertices >= 3:
            return poly


class TestConvexPolytope:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConvexPolytope([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ConvexPolytope([[0.0, math.nan], [1.0, 0.0]])

    def test_hull_drops_interior_and_collinear_points(self):
        poly = ConvexPolytope(
            [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [1, 0]]
        )
        assert poly.n_vertices == 4
        np.testing.assert_array_equal(
            poly.vertices, [[0, 0], [2, 0], [2, 2], [0, 2]]
        )

    def test_hull_is_ccw_from_lexicographic_minimum(self):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            poly = _random_polygon(rng, 12)
            v = poly.vertices
            assert tuple(v[0]) == min(map(tuple, v))
            nxt = np.roll(v, -1, axis=0)
            prv = np.roll(v, 1, axis=0)
            cross = (v[:, 0] - prv[:, 0]) * (nxt[:, 1] - v[:, 1]) - (
                v[:, 1] - prv[:, 1]
            ) * (nxt[:, 0] - v[:, 0])
            assert np.all(cross > 0)

    @pytest.mark.parametrize("delta", SLIVER_DELTAS)
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_near_collinear_quadrilateral_keeps_exactly_its_extreme_points(self, delta, side):
        quad = _sliver(side * delta)
        # one point on each long edge: boundary points, but not extreme ones
        on_edges = [[1.5, 0.0], [1.5, -side * delta]]
        rng = np.random.default_rng(6160)
        poly = ConvexPolytope(rng.permutation(quad + on_edges))
        a, b, c, d = quad
        assert poly.vertices.tolist() == ([a, b, c, d] if side > 0 else [a, d, c, b])

    def test_squared_diameter(self):
        poly = ConvexPolytope([[0, 0], [3, 0], [0, 4]])
        assert poly.squared_diameter() == 25.0


class TestExampleGeometry:
    def test_vertex_coordinates(self):
        g = ExampleGeometry(c=0.5)
        np.testing.assert_allclose(g.v2, [2.0, 1.0])
        np.testing.assert_allclose(g.v3, [0.0, 1.0])
        assert g.alpha_c == pytest.approx(5.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExampleGeometry(c=0.0)
        with pytest.raises(ValueError):
            ExampleGeometry(c=-1.0)
        with pytest.raises(ValueError):
            ExampleGeometry(c=2.0, x=0.6)  # x beyond 1/c

    def test_degenerate_x_collapses_to_segment(self):
        g = ExampleGeometry(c=2.0, x=0.5)
        assert g.theta_x_polytope().n_vertices == 2

    def test_x_zero_recovers_triangle(self):
        g = ExampleGeometry(c=1.0, x=0.0)
        full = ExampleGeometry(c=1.0).triangle()
        np.testing.assert_allclose(
            np.sort(g.theta_x_polytope().vertices, axis=0),
            np.sort(full.vertices, axis=0),
        )


def _min_norm_point_row(poly, y):
    """One point projected by the min-norm-point solver, whatever the dimension."""
    return _MinNormPoint(poly).project(np.asarray(y, dtype=float)[:, None], 0)[:, 0]


class TestProjectionAxioms:
    """Idempotency, nonexpansiveness, variational inequality; 10^4 instances."""

    N_INSTANCES = 10_000

    def _check_axioms(self, poly, project, y, y2, tol=1e-8):
        p = project(poly, y)
        p2 = project(poly, y2)
        # idempotency: a projected point is fixed
        assert np.linalg.norm(project(poly, p) - p) <= tol
        # nonexpansiveness
        assert np.linalg.norm(p - p2) <= np.linalg.norm(y - y2) + tol
        # variational inequality against every vertex
        gap = (poly.vertices - p) @ (y - p)
        assert np.max(gap) <= tol * (1.0 + np.linalg.norm(y))

    def test_planar_projector(self):
        rng = np.random.default_rng(90210)
        for _ in range(self.N_INSTANCES // 10):
            poly = _random_polygon(rng, rng.integers(3, 9))
            for _ in range(10):
                y, y2 = rng.normal(scale=3.0, size=(2, 2))
                self._check_axioms(poly, project_polygon_2d, y, y2)

    def test_min_norm_point_projector_planar(self):
        # the public projections use the edge search in the plane
        rng = np.random.default_rng(90211)
        for _ in range(200):
            poly = _random_polygon(rng, rng.integers(3, 9))
            for _ in range(5):
                y, y2 = rng.normal(scale=3.0, size=(2, 2))
                self._check_axioms(poly, _min_norm_point_row, y, y2)

    def test_min_norm_point_projector_higher_dim(self):
        rng = np.random.default_rng(90212)
        for _ in range(150):
            d = int(rng.integers(3, 6))
            poly = ConvexPolytope(rng.normal(size=(int(rng.integers(2, 9)), d)))
            for _ in range(4):
                y, y2 = rng.normal(scale=2.0, size=(2, d))
                self._check_axioms(poly, project_polytope, y, y2)

    def test_segment_projection_formula(self):
        rng = np.random.default_rng(90213)
        for _ in range(500):
            a, b, y = rng.normal(size=(3, 3))
            p = project_segment(a, b, y)
            # compare against a dense parameter scan
            ts = np.linspace(0.0, 1.0, 20001)
            cand = a[None, :] + ts[:, None] * (b - a)[None, :]
            best = cand[np.argmin(np.sum((cand - y) ** 2, axis=1))]
            assert np.linalg.norm(p - y) <= np.linalg.norm(best - y) + 1e-8


class TestTriangleRegions:
    @pytest.mark.parametrize("c", C_VALUES)
    def test_three_projectors_agree(self, c):
        g = ExampleGeometry(c=c)
        tri = g.triangle()
        rng = np.random.default_rng(31415)
        Y = rng.normal(scale=2.5, size=(2000, 2)) + np.array([0.5 / c, 0.5])
        batch = project_polygon_2d_batch(tri, Y)
        for y, via_batch in zip(Y, batch):
            region_point, _ = project_triangle_example(g, y)
            generic = _min_norm_point_row(tri, y)
            assert np.linalg.norm(region_point - generic) <= 1e-8
            assert np.linalg.norm(region_point - via_batch) <= 1e-8

    def test_region_labels_match_projection_structure(self):
        g = ExampleGeometry(c=1.0)
        rng = np.random.default_rng(27182)
        seen = set()
        for y in rng.normal(scale=2.5, size=(4000, 2)) + np.array([0.5, 0.5]):
            p, label = project_triangle_example(g, y)
            seen.add(label)
            if label is RegionLabel.INTERIOR:
                np.testing.assert_allclose(p, y, atol=1e-12)
            elif label is RegionLabel.A1:
                np.testing.assert_allclose(p, g.v1, atol=1e-12)
            elif label is RegionLabel.A2:
                np.testing.assert_allclose(p, g.v2, atol=1e-12)
            elif label is RegionLabel.A3:
                np.testing.assert_allclose(p, g.v3, atol=1e-12)
        assert seen == set(RegionLabel)

    def test_vertex_regions_project_to_vertices(self):
        g = ExampleGeometry(c=2.0)
        p, label = project_triangle_example(g, np.array([-3.0, -4.0]))
        assert label is RegionLabel.A1 and np.allclose(p, [0.0, 0.0])
        p, label = project_triangle_example(g, np.array([4.0, 3.0]))
        assert label is RegionLabel.A2
        p, label = project_triangle_example(g, np.array([-3.0, 4.0]))
        assert label is RegionLabel.A3 and np.allclose(p, [0.0, 1.0])


class TestBatchConsistency:
    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(5551212)
        for k in (2, 3, 5, 8):
            poly = ConvexPolytope(rng.normal(size=(k, 2))) if k > 2 else ConvexPolytope(
                [[0.0, 0.0], [1.0, 2.0]]
            )
            Y = rng.normal(scale=2.0, size=(300, 2))
            batch = project_polygon_2d_batch(poly, Y)
            for y, row in zip(Y, batch):
                np.testing.assert_allclose(row, project_polygon_2d(poly, y), atol=1e-12)


def _reference_project_batch(P, Y):
    """The unblocked per-edge projection loop, kept as the bitwise oracle."""
    v = P.vertices
    k = P.n_vertices
    if k == 1:
        return np.broadcast_to(v[0], Y.shape).copy()
    nxt = np.roll(v, -1, axis=0)
    edge = nxt - v
    len_sq = np.einsum("ij,ij->i", edge, edge)
    if k == 2:
        # elementwise like the K >= 3 loop: a BLAS product would round
        # differently with the number of rows
        t = ((Y[:, 0] - v[0, 0]) * edge[0, 0] + (Y[:, 1] - v[0, 1]) * edge[0, 1]) / len_sq[0]
        np.clip(t, 0.0, 1.0, out=t)
        return v[0] + t[:, None] * edge[0]
    y0, y1 = Y[:, 0], Y[:, 1]
    out = np.empty_like(Y)
    best_d2 = np.full(len(Y), np.inf)
    inside = np.ones(len(Y), dtype=bool)
    for i in range(k):
        e0, e1 = edge[i]
        d0 = y0 - v[i, 0]
        d1 = y1 - v[i, 1]
        inside &= e0 * d1 - e1 * d0 >= 0.0
        t = (d0 * e0 + d1 * e1) / len_sq[i]
        np.clip(t, 0.0, 1.0, out=t)
        fx = v[i, 0] + t * e0
        fy = v[i, 1] + t * e1
        d2 = (y0 - fx) ** 2 + (y1 - fy) ** 2
        better = d2 < best_d2
        best_d2[better] = d2[better]
        out[better, 0] = fx[better]
        out[better, 1] = fy[better]
    out[inside] = Y[inside]
    return out


def _regular_polygon(k):
    angles = 2.0 * math.pi * np.arange(k) / k
    return ConvexPolytope(np.column_stack([np.cos(angles), np.sin(angles)]))


KERNEL_POLYTOPES = {
    1: ConvexPolytope([[0.3, -0.2]]),
    2: ExampleGeometry(c=0.75).segment(),
    3: ExampleGeometry(c=0.75, x=0.5).theta_x_polytope(),
    4: ConvexPolytope([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [0.0, 1.5]]),
    8: _regular_polygon(8),
    **{f"sliver{delta:g}": ConvexPolytope(_sliver(delta)) for delta in SLIVER_DELTAS},
}


def _kernel_rng(base, key):
    """Generator for a kernel polytope's points: offset by K, or past 100 for a sliver."""
    offset = key if isinstance(key, int) else 100 + list(KERNEL_POLYTOPES).index(key)
    return np.random.default_rng(base + offset)


def _kernel_points(rng, poly, n):
    """Points inside, on edges, at vertices, and at noise levels 1e-8 to 1e12."""
    v = poly.vertices
    k = len(v)
    weights = rng.dirichlet(np.ones(k), size=n)
    t = rng.uniform(size=(n, 1))
    i = rng.integers(k, size=n)
    sigma = 10.0 ** rng.uniform(-8.0, 12.0, size=(n, 1))
    pools = [
        weights @ v,  # inside
        v[i] + t * (v[(i + 1) % k] - v[i]),  # on edges
        v[i],  # at vertices
        v[i] + sigma * rng.normal(size=(n, 2)),  # near to far away
    ]
    kind = rng.integers(len(pools), size=n)
    return np.choose(kind[:, None], pools)


class TestBlockedKernel:
    @pytest.mark.parametrize("k", list(KERNEL_POLYTOPES))
    def test_bitwise_equal_to_per_edge_loop(self, k):
        poly = KERNEL_POLYTOPES[k]
        rng = _kernel_rng(1000, k)
        for n in (0, 1, _PROJECT_BLOCK - 1, _PROJECT_BLOCK, _PROJECT_BLOCK + 1, 3 * _PROJECT_BLOCK + 7):
            Y = _kernel_points(rng, poly, n)
            got = project_polygon_2d_batch(poly, Y)
            want = _reference_project_batch(poly, Y)
            assert got.shape == want.shape == (n, 2)
            assert got.tobytes() == want.tobytes(), f"K={k}, n={n}"
            assert project_polytope_batch(poly, Y).tobytes() == want.tobytes(), f"K={k}, n={n}"

    @pytest.mark.parametrize("k", list(KERNEL_POLYTOPES))
    def test_single_point_is_one_batch_row(self, k):
        poly = KERNEL_POLYTOPES[k]
        Y = _kernel_points(_kernel_rng(2000, k), poly, 200)
        batch = project_polygon_2d_batch(poly, Y)
        for y, row in zip(Y, batch):
            assert project_polygon_2d(poly, y).tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "bad, row",
        [
            ([[math.nan, 0.5], [math.inf, math.inf]], 0),
            ([[0.1, 0.2], [math.inf, math.inf]], 1),
            ([[0.1, 0.2], [-math.inf, 0.0]], 1),
            ([[0.1, 0.2], [0.3, 0.1], [1e155, -1e155]], 2),
            # products overflow to +-inf, every squared distance to inf
            ([[0.1, 0.2], [1e307, -1e307]], 1),
            ([[0.1, 0.2], [-1e307, 1e307], [0.3, 0.1]], 1),
            ([[0.1, 0.2], [0.3, 0.1], [1.7e308, -1.7e308]], 2),
            ([[-1.7e308, 1.7e308], [1.7e308, -1.7e308]], 0),
            ([[0.5, 0.5]] * _PROJECT_BLOCK + [[0.1, 0.2], [1.7e308, -1.7e308]], _PROJECT_BLOCK + 1),
            ([[0.5, 0.5]] * (_PROJECT_BLOCK - 1) + [[-1e307, 1.7e308], [1e307, -1e307]], _PROJECT_BLOCK - 1),
            ([[0.5, 0.5]] * (_PROJECT_BLOCK - 1) + [[0.1, 0.2], [1e307, -1.7e308]], _PROJECT_BLOCK),
        ],
    )
    def test_rows_without_finite_distance_raise(self, bad, row):
        tri = ExampleGeometry(c=0.75).triangle()
        with pytest.raises(ProjectionError, match=rf"^point {row} "):
            project_polygon_2d_batch(tri, np.array(bad))
        with pytest.raises(ProjectionError, match=r"^point 0 "):
            project_polygon_2d(tri, bad[row])

    @pytest.mark.parametrize(
        "bad, row",
        [
            ([[0.1, 0.2], [1e308, -1e308], [-1e308, 1e308]], 1),
            ([[0.1, 0.2], [1e308, 1e308]], 1),
            ([[0.5, 0.5]] * (_PROJECT_BLOCK - 1) + [[-1e308, -1e308], [1e308, -1e308]], _PROJECT_BLOCK - 1),
            ([[0.5, 0.5]] * _PROJECT_BLOCK + [[1e307, -1e307], [-1e308, 1e308]], _PROJECT_BLOCK),
        ],
    )
    def test_rows_with_nan_feet_raise(self, bad, row):
        # both components of the first two edges exceed 1, so <y - v, e> is
        # inf - inf and t NaN on one edge, while the others' distances are inf
        poly = ConvexPolytope([[0.0, 0.0], [4.0, 3.0], [1.0, 5.0]])
        with pytest.raises(ProjectionError, match=rf"^point {row} "):
            project_polygon_2d_batch(poly, np.array(bad))
        with pytest.raises(ProjectionError, match=r"^point 0 "):
            project_polygon_2d(poly, bad[row])

    def test_nan_distance_on_one_edge_leaves_the_others(self):
        # ||e||^2 overflows on the long edges, so t is inf / inf = NaN there,
        # on the first edge for one row and the last for the other, while
        # another edge has a finite distance: neither row raises
        poly = ConvexPolytope([[0.0, 0.0], [1e155, 0.0], [1e155, 1.0]])
        Y = np.array([[1e155 + 1e140, 0.5], [-1e140, 0.5]])
        got = project_polygon_2d_batch(poly, Y)
        assert got.tolist() == [[1e155, 0.5], [0.0, 0.0]]
        with np.errstate(invalid="ignore", over="ignore"):
            assert got.tobytes() == _reference_project_batch(poly, Y).tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [[math.nan, 0.5], [math.inf, 0.2], [0.1, -math.inf]])
    def test_point_and_segment_refuse_non_finite_rows(self, k, bad):
        poly = KERNEL_POLYTOPES[k]
        Y = np.full((_PROJECT_BLOCK + 10, 2), 0.5)
        Y[_PROJECT_BLOCK + 3] = bad
        with pytest.raises(ProjectionError, match=rf"^point {_PROJECT_BLOCK + 3} .*no finite distance"):
            project_polygon_2d_batch(poly, Y)
        with pytest.raises(ProjectionError, match=r"^point 0 "):
            project_polygon_2d(poly, bad)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_point_and_segment_project_huge_finite_rows(self, k, scale):
        # the squared distance overflows, but neither projection needs it
        poly = KERNEL_POLYTOPES[k]
        Y = scale * np.random.default_rng(7).normal(size=(500, 2))
        got = project_polygon_2d_batch(poly, Y)
        assert got.tobytes() == _reference_project_batch(poly, Y).tobytes()

    @pytest.mark.parametrize("vertex", [[-0.0, 0.5], [0.5, -0.0], [-0.0, -0.0], [0.0, -0.0]])
    def test_point_returns_its_stored_vertex_bits(self, vertex):
        poly = ConvexPolytope([vertex])
        Y = np.array([
            [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0],
            [1e300, 1e300], [1e300, -1e300], [-1e300, 1e300], [-1e300, -1e300],
        ])
        want = np.broadcast_to(np.array(vertex), Y.shape)
        got = project_polygon_2d_batch(poly, Y)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.tobytes() == want.tobytes() == _reference_project_batch(poly, Y).tobytes()
        for y in Y:
            assert np.array_equal(np.signbit(project_polygon_2d(poly, y)), np.signbit(vertex))
        for bad in ([math.nan, 1.0], [1.0, math.inf], [-math.inf, -1e300]):
            with pytest.raises(ProjectionError, match=r"^point 3 .*no finite distance"):
                project_polygon_2d_batch(poly, np.vstack([Y[:3], [bad], Y[3:]]))

    def test_bad_row_index_counts_across_blocks(self):
        tri = ExampleGeometry(c=0.75).triangle()
        Y = np.full((2 * _PROJECT_BLOCK + 10, 2), 0.5)
        Y[_PROJECT_BLOCK + 3] = [math.nan, 0.0]
        Y[_PROJECT_BLOCK + 5] = [1e200, 1e200]
        with pytest.raises(ProjectionError, match=rf"^point {_PROJECT_BLOCK + 3} "):
            project_polygon_2d_batch(tri, Y)


class TestCones:
    def test_normal_cone_angles_sum_to_full_turn(self):
        rng = np.random.default_rng(64001)
        for _ in range(100):
            poly = _random_polygon(rng, rng.integers(3, 10))
            total = sum(normal_cone_angle_2d(poly, i) for i in range(poly.n_vertices))
            assert total == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_tangent_cone_classification(self):
        g = ExampleGeometry(c=1.0)
        tri = g.triangle()
        assert tangent_cone_2d(tri, [0.4, 0.6]).kind is ConeKind.FULL
        edge = tangent_cone_2d(tri, [0.3, 0.3])  # on the lower edge y2 = c y1
        assert edge.kind is ConeKind.HALFPLANE
        vertex = tangent_cone_2d(tri, [0.0, 0.0])
        assert vertex.kind is ConeKind.WEDGE
        assert vertex.apex_angle == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_tangent_cone_segment_and_point(self):
        seg = ExampleGeometry(c=2.0).segment()
        assert tangent_cone_2d(seg, [0.0, 0.0]).kind is ConeKind.RAY
        with pytest.raises(ValueError):
            tangent_cone_2d(seg, [0.25, 0.5])  # relative interior: a full line
        point = ConvexPolytope([[0.7, -0.2]])
        assert tangent_cone_2d(point, [0.7, -0.2]).kind is ConeKind.POINT

    def test_tangent_cone_rejects_outside_points(self):
        tri = ExampleGeometry(c=1.0).triangle()
        with pytest.raises(ValueError):
            tangent_cone_2d(tri, [5.0, 5.0])

    def test_wedge_angles_match_slope(self):
        for c in C_VALUES:
            tri = ExampleGeometry(c=c).triangle()
            cone = tangent_cone_2d(tri, [0.0, 0.0])
            assert cone.apex_angle == pytest.approx(math.atan(1.0 / c), abs=1e-12)

    def test_cone2d_validation(self):
        with pytest.raises(ValueError):
            Cone2D(ConeKind.WEDGE, math.pi)
        with pytest.raises(ValueError):
            Cone2D(ConeKind.RAY, 0.3)

    def test_exposed_face_vertex(self):
        poly = ConvexPolytope([[0, 0], [2, 0], [2, 2], [0, 2]])
        assert exposed_face_vertex(poly, [1.0, -0.1]) == 1
        assert exposed_face_vertex(poly, [1.0, 0.1]) == 2
        assert exposed_face_vertex(poly, [-1.0, -1.0]) == 0
        assert exposed_face_vertex(poly, [1.0, 0.0]) == 1  # tie breaks low
        with pytest.raises(ValueError):
            exposed_face_vertex(poly, [0.0, 0.0])


class TestConeProjection:
    def test_against_scipy_nnls(self):
        rng = np.random.default_rng(777001)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            d = int(rng.integers(2, 5))
            G = rng.normal(size=(m, d))
            z = rng.normal(scale=2.0, size=d)
            mine = project_cone_nonneg(G, z)
            coef, _ = nnls(G.T, z)
            reference = coef @ G
            # the reference point is always feasible, so it bounds the optimum
            assert np.linalg.norm(mine - z) <= np.linalg.norm(reference - z) + 1e-9
            if m <= d:
                # underdetermined instances trip a scipy 1.15 nnls defect
                # (solution reported with residual 0 while far from optimal),
                # so the point-level comparison is restricted to m <= d
                assert np.linalg.norm(mine - reference) <= 1e-6

    def test_planar_wedge_angle_clamp_oracle(self):
        """In 2D a wedge projection is an angle clamp in polar coordinates."""
        rng = np.random.default_rng(777002)
        for _ in range(200):
            a1 = rng.uniform(0.0, 2.0 * math.pi)
            a2 = a1 + rng.uniform(0.05, math.pi - 0.05)
            G = np.array(
                [[math.cos(a1), math.sin(a1)], [math.cos(a2), math.sin(a2)]]
            )
            z = rng.normal(scale=2.0, size=2)
            got = project_cone_nonneg(G, z)
            theta = math.atan2(z[1], z[0])
            rel = (theta - a1) % (2.0 * math.pi)
            width = a2 - a1
            if rel <= width:
                want = z
            elif rel <= width + math.pi / 2.0:
                want = (z @ G[1]) * G[1] if z @ G[1] > 0 else np.zeros(2)
            elif rel >= 2.0 * math.pi - math.pi / 2.0:
                want = (z @ G[0]) * G[0] if z @ G[0] > 0 else np.zeros(2)
            else:
                want = np.zeros(2)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(777003)
        G = rng.normal(size=(4, 3))
        Z = rng.normal(size=(100, 3))
        batch = project_cone_nonneg_batch(G, Z)
        for z, row in zip(Z, batch):
            np.testing.assert_allclose(row, project_cone_nonneg(G, z), atol=1e-10)

    def test_generator_cap(self):
        G = np.ones((17, 2))
        G[:, 0] = np.arange(17)
        with pytest.raises(ValueError):
            project_cone_nonneg_batch(G, np.zeros((1, 2)))

    def test_points_inside_cone_are_fixed(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([0.3, 2.0])
        np.testing.assert_allclose(project_cone_nonneg(G, z), z, atol=1e-12)


class TestMinNormPointEdgeCases:
    def test_single_vertex(self):
        poly = ConvexPolytope([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            project_polytope(poly, [0.0, 0.0, 0.0]), [1.0, 2.0, 3.0]
        )

    def test_interior_point_is_fixed(self):
        poly = ConvexPolytope([[0, 0], [1, 0], [0, 1]])
        y = np.array([0.2, 0.2])
        np.testing.assert_allclose(project_polytope(poly, y), y, atol=1e-9)

    def test_matches_planar_projector_on_degenerate_inputs(self):
        # collinear vertex sets in 3D exercise the affine minimizer fallback
        rng = np.random.default_rng(424242)
        base = rng.normal(size=3)
        direction = rng.normal(size=3)
        poly = ConvexPolytope([base + t * direction for t in (0.0, 0.5, 1.0, 2.0)])
        for _ in range(50):
            y = rng.normal(scale=2.0, size=3)
            p = project_polytope(poly, y)
            q = project_segment(base, base + 2.0 * direction, y)
            assert np.linalg.norm(p - q) <= 1e-8


SIDE = math.sqrt(2.0)
CUBE = ConvexPolytope([[a, b, c] for a in (0.0, SIDE) for b in (0.0, SIDE) for c in (0.0, SIDE)])


def _exact_polytope_projection(poly, Y):
    """Nearest feasible affine projection over all vertex subsets of size <= d + 1.

    The projection lies in the hull of an affinely independent vertex subset
    and is the projection onto that subset's affine hull, so the nearest of
    the affine projections whose weights come out nonnegative is exact.
    """
    v = poly.vertices
    best = np.full_like(Y, np.nan)
    best_d2 = np.full(len(Y), np.inf)
    for size in range(1, min(len(v), poly.dim + 1) + 1):
        for subset in itertools.combinations(range(len(v)), size):
            base, spans = v[subset[0]], v[list(subset[1:])] - v[subset[0]]
            if size > 1 and np.linalg.matrix_rank(spans) < size - 1:
                continue
            t = np.zeros((len(Y), size - 1))
            if size > 1:
                t = np.linalg.lstsq(spans.T, (Y - base).T, rcond=None)[0].T
            weights = np.column_stack([1.0 - t.sum(axis=1), t])
            proj = base + t @ spans
            d2 = np.sum((Y - proj) ** 2, axis=1)
            better = np.all(weights >= -1e-12, axis=1) & (d2 < best_d2)
            best[better], best_d2[better] = proj[better], d2[better]
    return best


def _certificate(poly, Y, Q):
    """max_i <y - q, v_i - q> per row."""
    return np.max(np.einsum("nd,nkd->nk", Y - Q, poly.vertices[None] - Q[:, None]), axis=1)


class TestMinNormPointBatch:
    # agreement with an exact oracle, relative to the scale of the point:
    # far out, rounding of y alone moves the answer by ulps of ||y||
    RTOL = 1e-13

    def _close(self, got, want, Y):
        err = np.max(np.abs(got - want), axis=1)
        assert np.all(err <= self.RTOL * (1.0 + np.linalg.norm(Y, axis=1)))

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e2, 1e5, 1e10])
    def test_cube_is_a_clip(self, scale):
        rng = np.random.default_rng(5150)
        Y = SIDE * rng.uniform(size=(3000, 3)) + scale * rng.normal(size=(3000, 3))
        Q = project_polytope_batch(CUBE, Y)
        self._close(Q, np.clip(Y, 0.0, SIDE), Y)
        assert np.all(_certificate(CUBE, Y, Q) <= 1e-9 * (1.0 + np.linalg.norm(Y, axis=1)))

    def test_coplanar_square_in_3d(self):
        # the square [0, 1]^2 x {0.5}: a clip in the plane, the height dropped
        square = ConvexPolytope([[0.0, 0.0, 0.5], [1.0, 0.0, 0.5], [1.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
        Y = np.random.default_rng(5151).normal(scale=2.0, size=(2000, 3))
        want = np.column_stack([np.clip(Y[:, :2], 0.0, 1.0), np.full(len(Y), 0.5)])
        self._close(project_polytope_batch(square, Y), want, Y)

    def test_collinear_points_are_a_segment(self):
        rng = np.random.default_rng(5152)
        base, direction = rng.normal(size=(2, 3))
        line = ConvexPolytope([base + t * direction for t in (0.0, 0.5, 1.0, 2.0)])
        Y = rng.normal(scale=2.0, size=(500, 3))
        want = np.array([project_segment(base, base + 2.0 * direction, y) for y in Y])
        self._close(project_polytope_batch(line, Y), want, Y)

    @pytest.mark.parametrize("d", [1, 3, 4, 5])
    def test_random_polytopes_match_subset_enumeration(self, d):
        rng = np.random.default_rng(5160 + d)
        for _ in range(3):
            poly = ConvexPolytope(rng.normal(size=(int(rng.integers(d + 1, d + 5)), d)))
            Y = rng.normal(scale=2.0, size=(300, d))
            Q = project_polytope_batch(poly, Y)
            self._close(Q, _exact_polytope_projection(poly, Y), Y)
            assert np.all(_certificate(poly, Y, Q) <= 1e-9 * (1.0 + np.linalg.norm(Y, axis=1)))

    @pytest.mark.parametrize("n", [0, 1, _POLYTOPE_BLOCK - 1, _POLYTOPE_BLOCK, _POLYTOPE_BLOCK + 1])
    def test_block_edges(self, n):
        Y = np.random.default_rng(n).normal(size=(n, 3))
        Q = project_polytope_batch(CUBE, Y)
        assert Q.shape == (n, 3)
        self._close(Q, np.clip(Y, 0.0, SIDE), Y)

    def test_mixed_iteration_counts_in_one_block(self):
        # far points in a vertex cone certify at their start vertex, interior
        # points take at least d + 1 iterations; both interleaved in one block
        rng = np.random.default_rng(5170)
        corner = CUBE.vertices[rng.integers(8, size=500)]
        outward = np.where(corner > 0.0, 1.0, -1.0) * rng.uniform(1.0, 5.0, size=(500, 3))
        Y = np.empty((1000, 3))
        Y[0::2] = corner + outward
        Y[1::2] = SIDE * rng.uniform(0.05, 0.95, size=(500, 3))
        Q = project_polytope_batch(CUBE, Y)
        np.testing.assert_array_equal(Q[0::2], corner)
        self._close(Q, np.clip(Y, 0.0, SIDE), Y)
        for i in range(0, 1000, 37):
            assert project_polytope(CUBE, Y[i]).tobytes() == Q[i].tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    def test_single_row_equals_batch_row(self, d):
        rng = np.random.default_rng(5180 + d)
        poly = ConvexPolytope(rng.normal(size=(9, d)))
        n = _POLYTOPE_BLOCK + 50
        Y = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8.0, 10.0, size=(n, 1))
        Q = project_polytope_batch(poly, Y)
        for i in list(range(0, len(Y), 101)) + [len(Y) - 1]:
            assert project_polytope(poly, Y[i]).tobytes() == Q[i].tobytes()

    def test_shared_projector_equals_a_fresh_one(self):
        # the projector behind project_polytope_batch keeps its active-set
        # maps across calls; a warm cache must not change a bit
        rng = np.random.default_rng(5190)
        poly = ConvexPolytope(rng.normal(size=(10, 4)))
        project_polytope_batch(poly, rng.normal(scale=3.0, size=(500, 4)))
        Y = rng.normal(size=(700, 4)) * 10.0 ** rng.uniform(-4.0, 6.0, size=(700, 1))
        fresh = _MinNormPoint(poly).project(Y.T, 0).T
        assert project_polytope_batch(poly, Y).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [1e160, 0.0, -1e160]])
    def test_rows_without_finite_norm_raise_across_blocks(self, bad):
        Y = np.full((2 * _POLYTOPE_BLOCK + 10, 3), 0.5)
        Y[_POLYTOPE_BLOCK + 3] = bad
        Y[_POLYTOPE_BLOCK + 5] = [math.nan] * 3
        with pytest.raises(ProjectionError, match=rf"^point {_POLYTOPE_BLOCK + 3} "):
            project_polytope_batch(CUBE, Y)
        with pytest.raises(ProjectionError, match=r"^point 0 "):
            project_polytope(CUBE, bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            project_polytope_batch(CUBE, np.zeros((4, 2)))
