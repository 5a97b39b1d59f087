"""Asymptotics layer: statistical dimensions, limiting risks, reversal scans.

Analytic values are cross-checked against the Monte Carlo engine at
reduced sample sizes here (the full-size runs live in the acceptance
suite), and the closed-form envelope is checked against an independent
route through normal-cone angles and the limiting-risk quadratic.
"""

import math

import numpy as np
import pytest

from riskrev.asymptotics import (
    VertexDistribution,
    delta_x,
    detect_finite_sigma_reversal,
    envelope_curve,
    limiting_risk,
    small_noise_risk,
    statistical_dimension_2d,
    statistical_dimension_mc,
    theta_x_limiting_risk,
    vertex_probabilities_2d,
    vertex_probabilities_mc,
    worst_case_limiting_risk,
)
from riskrev.exact_risk import risk_triangle_exact
from riskrev.geometry import Cone2D, ConeKind, ConvexPolytope, ExampleGeometry

TWO_PI = 2.0 * math.pi


def _binomial_margin(p: float, n: int) -> float:
    return 4.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


class TestContainers:
    def test_vertex_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            VertexDistribution(probs=(0.5, 0.4))
        with pytest.raises(ValueError):
            VertexDistribution(probs=(1.2, -0.2))
        dist = VertexDistribution(probs=(0.25, 0.75))
        assert len(dist) == 2


class TestStatisticalDimension:
    def test_analytic_cone_values(self):
        assert statistical_dimension_2d(Cone2D(ConeKind.POINT, 0.0)) == 0.0
        assert statistical_dimension_2d(Cone2D(ConeKind.RAY, 0.0)) == 0.5
        assert statistical_dimension_2d(Cone2D(ConeKind.HALFPLANE, math.pi)) == 1.5
        assert statistical_dimension_2d(Cone2D(ConeKind.FULL, TWO_PI)) == 2.0
        wedge = Cone2D(ConeKind.WEDGE, math.pi / 4.0)
        assert statistical_dimension_2d(wedge) == pytest.approx(0.75, abs=1e-15)

    def test_mc_ray(self):
        est = statistical_dimension_mc([[1.0, 0.0]], n=60_000, seed=301)
        assert abs(est.mean - 0.5) <= 4.0 * est.stderr

    def test_mc_quadrant(self):
        est = statistical_dimension_mc([[1.0, 0.0], [0.0, 1.0]], n=60_000, seed=302)
        assert abs(est.mean - 1.0) <= 4.0 * est.stderr

    def test_mc_wedge_matches_angle_formula(self):
        r = 1.0 / math.sqrt(2.0)
        est = statistical_dimension_mc([[1.0, 0.0], [r, r]], n=60_000, seed=303)
        assert abs(est.mean - 0.75) <= 4.0 * est.stderr

    def test_mc_orthant_3d(self):
        gens = np.eye(3)
        est = statistical_dimension_mc(gens, n=40_000, seed=304)
        assert abs(est.mean - 1.5) <= 4.0 * est.stderr

    def test_deterministic(self):
        a = statistical_dimension_mc([[1.0, 0.0]], n=5_000, seed=5)
        b = statistical_dimension_mc([[1.0, 0.0]], n=5_000, seed=5)
        assert a.mean == b.mean


class TestSmallNoiseRisk:
    def test_matches_exact_triangle_risk(self):
        sigma = 1e-3
        for c in (0.5, 1.0, 2.0):
            g = ExampleGeometry(c=c)
            approx = small_noise_risk(g.triangle(), (0.0, 0.0), sigma)
            exact = risk_triangle_exact(g, sigma).total
            assert approx == pytest.approx(exact, rel=1e-5)

    def test_generator_route(self):
        sigma = 0.01
        got = small_noise_risk(
            ConvexPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            (0.0, 0.0, 0.0),
            sigma,
            generators=[[1.0, 0.0, 0.0]],
            n=50_000,
            seed=41,
        )
        assert got == pytest.approx(0.5 * sigma * sigma, rel=0.1)

    def test_non_planar_without_generators_rejected(self):
        poly = ConvexPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            small_noise_risk(poly, (0.0, 0.0, 0.0), 0.1)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        tri = ExampleGeometry(c=1.0).triangle()
        with pytest.raises(ValueError, match=r"^sigma must be a positive finite real"):
            small_noise_risk(tri, (0.0, 0.0), sigma)


class TestVertexProbabilities:
    @pytest.mark.parametrize("c,x", [(0.75, 0.5), (0.75, 1.3), (1.0, 0.3)])
    def test_analytic_matches_closed_forms(self, c, x):
        # stored vertex order is v1, v2, vx (counterclockwise from the origin)
        g = ExampleGeometry(c=c, x=x)
        dist = vertex_probabilities_2d(g.theta_x_polytope())
        p2 = 0.25 + math.atan(1.0 / c) / TWO_PI
        px = 0.25 - math.atan(x) / TWO_PI
        assert dist.probs[1] == pytest.approx(p2, abs=1e-12)
        assert dist.probs[2] == pytest.approx(px, abs=1e-12)
        assert dist.probs[0] == pytest.approx(1.0 - p2 - px, abs=1e-12)

    def test_full_triangle_c_one(self):
        dist = vertex_probabilities_2d(ExampleGeometry(c=1.0).triangle())
        np.testing.assert_allclose(dist.probs, [0.375, 0.375, 0.25], atol=1e-12)

    def test_sum_to_one_random_polygons(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            poly = ConvexPolytope(rng.normal(size=(8, 2)))
            if poly.n_vertices < 3:
                continue
            assert sum(vertex_probabilities_2d(poly).probs) == pytest.approx(1.0, abs=1e-9)

    def test_mc_matches_analytic(self):
        g = ExampleGeometry(c=0.75, x=0.5)
        poly = g.theta_x_polytope()
        n = 150_000
        emp = vertex_probabilities_mc(poly, n=n, seed=51)
        ana = vertex_probabilities_2d(poly)
        for p_hat, p in zip(emp.probs, ana.probs):
            assert abs(p_hat - p) <= _binomial_margin(p, n)

    @pytest.mark.parametrize("n", [2.7, True])
    def test_mc_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            vertex_probabilities_mc(ExampleGeometry(c=1.0).triangle(), n=n)

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_mc_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer"):
            vertex_probabilities_mc(ExampleGeometry(c=1.0).triangle(), n=5, seed=seed)

    @pytest.mark.parametrize("seed", [5.0, np.int64(5)])
    def test_mc_integral_seed_is_the_int(self, seed):
        tri = ExampleGeometry(c=1.0).triangle()
        assert vertex_probabilities_mc(tri, n=50, seed=seed) == vertex_probabilities_mc(tri, n=50, seed=5)

    @pytest.mark.parametrize("n", [5.0, np.int64(5)])
    def test_mc_integral_n_is_the_int(self, n):
        tri = ExampleGeometry(c=1.0).triangle()
        assert vertex_probabilities_mc(tri, n=n, seed=2) == vertex_probabilities_mc(tri, n=5, seed=2)

    def test_segment_splits_evenly(self):
        dist = vertex_probabilities_2d(ExampleGeometry(c=1.0).segment())
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-15)


class TestLimitingRisk:
    def test_formula_route_matches_geometry_route(self):
        for c, x in [(0.75, 0.5), (0.75, 1.3), (2.0, 0.25)]:
            g = ExampleGeometry(c=c, x=x)
            poly = g.theta_x_polytope()
            via_geometry = limiting_risk(
                poly, (0.0, 0.0), vertex_probabilities_2d(poly)
            )
            assert theta_x_limiting_risk(c, x) == pytest.approx(via_geometry, abs=1e-12)

    def test_degenerate_x_reduces_to_segment_value(self):
        for c in (0.5, 0.75, 2.0):
            alpha = 1.0 + 1.0 / (c * c)
            assert theta_x_limiting_risk(c, 1.0 / c) == pytest.approx(alpha / 2.0, abs=1e-12)

    def test_point_mass_distribution(self):
        poly = ConvexPolytope([[0.0, 0.0], [2.0, 0.0]])
        dist = VertexDistribution(probs=(0.0, 1.0))
        assert limiting_risk(poly, (0.0, 0.0), dist) == pytest.approx(4.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_rejects_non_finite_theta(self, theta):
        poly = ExampleGeometry(c=0.75, x=0.5).theta_x_polytope()
        with pytest.raises(ValueError, match=r"^theta must be finite"):
            limiting_risk(poly, theta, vertex_probabilities_2d(poly))

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_slope_checks_name_c(self, c):
        for call in (lambda: theta_x_limiting_risk(c, 0.0), lambda: delta_x(c, 0.5),
                     lambda: envelope_curve(c, [0.0])):
            with pytest.raises(ValueError, match=r"^c must be a positive finite real"):
                call()

    @pytest.mark.parametrize("x", [-0.1, 1.4, math.nan])
    def test_theta_x_checks_name_x(self, x):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1/c\]"):
            theta_x_limiting_risk(0.75, x)


class TestDeltaX:
    def test_sign_pattern(self):
        c = 0.75
        assert delta_x(c, 0.5) < 0.0
        assert delta_x(c, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert delta_x(c, 1.2) > 0.0

    def test_matches_limiting_risk_difference(self):
        rng = np.random.default_rng(808)
        for _ in range(100):
            c = rng.uniform(0.3, 0.9)
            x = rng.uniform(0.05, 0.95 / c)
            want = theta_x_limiting_risk(c, x) - theta_x_limiting_risk(c, 0.0)
            assert delta_x(c, x) == pytest.approx(want, abs=1e-12)

    def test_domain_is_strict(self):
        with pytest.raises(ValueError):
            delta_x(0.75, 0.0)
        with pytest.raises(ValueError):
            delta_x(0.75, 1.0 / 0.75)


class TestWorstCase:
    """Per-vertex limiting risks of the movable triangle at c = 0.75."""

    EXPECTED = {
        0.5: (1.324659, 1.306278, 0.808860),
        1.3: (1.385120, 1.383614, 1.340221),
    }

    @pytest.mark.parametrize("x", [0.5, 1.3])
    def test_vertex_triples(self, x):
        g = ExampleGeometry(c=0.75, x=x)
        poly = g.theta_x_polytope()
        dist = vertex_probabilities_2d(poly)
        risks = [limiting_risk(poly, v, dist) for v in poly.vertices]
        for got, want in zip(risks, self.EXPECTED[x]):
            assert got == pytest.approx(want, abs=5e-7)
        value, index = worst_case_limiting_risk(poly, dist)
        assert index == 0  # the origin vertex is always the worst here
        assert value == pytest.approx(max(self.EXPECTED[x]), abs=5e-7)

    def test_sup_risk_reversal_in_the_limit(self):
        # the strictly smaller set (x = 1.3) has the larger worst-case risk
        small = ExampleGeometry(c=0.75, x=1.3).theta_x_polytope()
        large = ExampleGeometry(c=0.75, x=0.5).theta_x_polytope()
        sup_small, _ = worst_case_limiting_risk(small, vertex_probabilities_2d(small))
        sup_large, _ = worst_case_limiting_risk(large, vertex_probabilities_2d(large))
        assert sup_small > sup_large + 0.05


class TestEnvelope:
    def test_closed_form_matches_geometry_route(self):
        c = 0.75
        grid = np.array([0.05, 0.3, 0.7, 1.0, 1.25])
        x, risk_v1, risk_v2, risk_vx, _ = envelope_curve(c, grid)
        np.testing.assert_array_equal(x, grid)
        for i in range(len(grid)):
            poly = ExampleGeometry(c=c, x=x[i]).theta_x_polytope()
            dist = vertex_probabilities_2d(poly)
            np.testing.assert_allclose(
                [risk_v1[i], risk_v2[i], risk_vx[i]],
                [limiting_risk(poly, v, dist) for v in poly.vertices],
                atol=1e-10,
            )

    def test_columns_are_float_arrays_and_envelope_is_their_max(self):
        grid = np.linspace(0.0, 1.0 / 0.75, 1001)
        columns = envelope_curve(0.75, grid)
        assert len(columns) == 5
        for column in columns:
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.float64 and column.shape == grid.shape
        _, risk_v1, risk_v2, risk_vx, envelope = columns
        np.testing.assert_array_equal(envelope, np.max([risk_v1, risk_v2, risk_vx], axis=0))
        # the worst-case vertex switches along the grid, so the max is a real envelope
        assert len(set(np.argmax([risk_v1, risk_v2, risk_vx], axis=0).tolist())) >= 2

    def test_envelope_is_not_monotone(self):
        # dips below both endpoints near x = 0.43, so shrinking the set
        # first helps and then hurts
        c = 0.75
        _, _, _, _, envelope = envelope_curve(c, [0.1, 0.429, 1.25])
        assert envelope[1] < envelope[0]
        assert envelope[1] < envelope[2]

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            envelope_curve(0.75, [0.5, 1.4])  # 1.4 > 1/c
        with pytest.raises(ValueError):
            envelope_curve(0.75, [-0.1])


class TestReversalScan:
    def test_sup_risk_matches_individual_estimates_bitwise(self):
        # the shared-stream sup computation must reproduce per-point mc_risk
        from riskrev.asymptotics import _sup_candidates
        from riskrev.exact_risk import RiskQuery
        from riskrev.montecarlo import MCConfig, mc_risk, mc_risks

        poly = ExampleGeometry(c=0.75, x=0.5).theta_x_polytope()
        cfg = MCConfig(n=9_000, seed=44, chunk=2048)
        candidates = _sup_candidates(poly, 3)
        shared = max(mc_risks(poly, candidates, 2.5, cfg), key=lambda e: e.mean)
        sup, stderr = shared.mean, shared.stderr
        singles = [
            mc_risk(poly, RiskQuery(theta_star=tuple(t), sigma=2.5), cfg)
            for t in candidates
        ]
        best = max(singles, key=lambda e: e.mean)
        assert sup == best.mean
        assert stderr == best.stderr

    def test_small_noise_returns_none(self):
        scan = detect_finite_sigma_reversal(
            ExampleGeometry(c=0.75, x=1.3),
            ExampleGeometry(c=0.75, x=0.5),
            [0.01],
            n=20_000,
            seed=61,
        )
        assert scan.reversal_sigma is None
        assert scan.sigma_grid == (0.01,)
        assert len(scan.sup_small) == len(scan.sup_large) == 1

    def test_equal_sets_never_reverse(self):
        scan = detect_finite_sigma_reversal(
            ExampleGeometry(c=0.75, x=0.9),
            ExampleGeometry(c=0.75, x=0.9),
            [0.5, 5.0],
            n=20_000,
            seed=62,
        )
        assert scan.reversal_sigma is None

    def test_large_noise_detects_reversal(self):
        scan = detect_finite_sigma_reversal(
            ExampleGeometry(c=0.75, x=1.3),
            ExampleGeometry(c=0.75, x=0.5),
            [10.0, 50.0],
            n=50_000,
            seed=63,
        )
        assert scan.reversal_sigma is not None

    def test_validation(self):
        g_small = ExampleGeometry(c=0.75, x=0.5)
        g_large = ExampleGeometry(c=0.75, x=1.3)
        with pytest.raises(ValueError):
            # wrong orientation: x_small < x_large
            detect_finite_sigma_reversal(g_small, g_large, [1.0], n=100)
        with pytest.raises(ValueError):
            detect_finite_sigma_reversal(
                ExampleGeometry(c=0.5, x=1.3),
                ExampleGeometry(c=0.75, x=0.5),
                [1.0],
                n=100,
            )
        with pytest.raises(ValueError):
            detect_finite_sigma_reversal(
                ExampleGeometry(c=0.75, x=1.3),
                ExampleGeometry(c=0.75),
                [1.0],
                n=100,
            )
        with pytest.raises(ValueError):
            detect_finite_sigma_reversal(
                ExampleGeometry(c=0.75, x=1.3),
                ExampleGeometry(c=0.75, x=0.5),
                [2.0, 1.0],
                n=100,
            )

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("x_small", [1.3, 1.0 / 0.75])  # 1/c is the segment
    def test_columns_are_the_per_sigma_sup_of_mc_risks(self, monkeypatch, threads, x_small):
        from riskrev.asymptotics import _sup_candidates
        from riskrev.montecarlo import MCConfig, mc_risks

        monkeypatch.setenv("RISKREV_THREADS", threads)
        sets = ExampleGeometry(c=0.75, x=x_small), ExampleGeometry(c=0.75, x=0.5)
        sigmas = (0.3, 2.0, 5.0, 40.0)
        cfg = MCConfig(n=5_000, seed=64, chunk=2048)  # three chunks, the last one partial
        scan = detect_finite_sigma_reversal(*sets, sigmas, n=cfg.n, seed=cfg.seed, edge_points=3, chunk=cfg.chunk)
        assert scan.sigma_grid == sigmas
        columns = ((scan.sup_small, scan.stderr_small), (scan.sup_large, scan.stderr_large))
        for geometry, (sup, stderr) in zip(sets, columns):
            poly = geometry.theta_x_polytope()
            for i, sigma in enumerate(sigmas):
                best = max(mc_risks(poly, _sup_candidates(poly, 3), sigma, cfg), key=lambda e: e.mean)
                assert (sup[i], stderr[i]) == (best.mean, best.stderr)

    @pytest.mark.parametrize("sigmas", [[1.0], [0.5, 5.0, 20.0], np.geomspace(0.1, 100.0, 7)], ids=len)
    def test_one_draw_per_chunk_for_the_whole_scan(self, monkeypatch, sigmas):
        from riskrev import montecarlo

        draws = []
        draw = montecarlo._chunk_normals

        def counted(seed, chunk_index, m, d):
            draws.append(chunk_index)
            return draw(seed, chunk_index, m, d)

        monkeypatch.setattr(montecarlo, "_chunk_normals", counted)
        detect_finite_sigma_reversal(
            ExampleGeometry(c=0.75, x=1.3),
            ExampleGeometry(c=0.75, x=0.5),
            sigmas,
            n=5_000,
            edge_points=1,
            chunk=2048,
        )
        assert draws == [0, 1, 2]

    def test_scalar_grid_is_one_point(self):
        scan = detect_finite_sigma_reversal(
            ExampleGeometry(c=0.75, x=1.3), ExampleGeometry(c=0.75, x=0.5), 2.0, n=100
        )
        assert scan.sigma_grid == (2.0,)
        assert type(scan.sigma_grid[0]) is float

    @pytest.mark.parametrize(
        "sigmas, message",
        [
            ([], "nonempty, strictly increasing 1-D"),
            ([[1.0, 2.0]], "nonempty, strictly increasing 1-D"),
            ([1.0, math.nan], "sigma must be a positive finite real, got nan"),
            ([0.0, 1.0], "sigma must be a positive finite real, got 0.0"),
            ([1.0, math.inf], "sigma must be a positive finite real, got inf"),
            ([1.0, 1.0], "nonempty, strictly increasing 1-D"),
            ([2.0, 1.0], "nonempty, strictly increasing 1-D"),
        ],
    )
    def test_grid_is_checked(self, sigmas, message):
        with pytest.raises(ValueError, match=message):
            detect_finite_sigma_reversal(
                ExampleGeometry(c=0.75, x=1.3), ExampleGeometry(c=0.75, x=0.5), sigmas, n=100
            )

    @pytest.mark.parametrize("edge_points", [-3, -1, 2.5, math.nan, True, "4"])
    def test_edge_points_must_be_a_nonnegative_integer(self, edge_points):
        with pytest.raises(ValueError, match="edge_points"):
            detect_finite_sigma_reversal(
                ExampleGeometry(c=0.75, x=1.3),
                ExampleGeometry(c=0.75, x=0.5),
                [1.0],
                n=100,
                edge_points=edge_points,
            )

    @pytest.mark.parametrize("edge_points", [0, 2, 2.0, np.int64(2)])
    def test_integral_edge_points_scan(self, edge_points):
        scan = detect_finite_sigma_reversal(
            ExampleGeometry(c=0.75, x=1.3),
            ExampleGeometry(c=0.75, x=0.5),
            [1.0],
            n=100,
            edge_points=edge_points,
        )
        assert scan.edge_points == int(edge_points)
        assert type(scan.edge_points) is int
