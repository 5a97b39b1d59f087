"""Monte Carlo engine tests: determinism, unbiasedness, distributional checks.

The estimator is counter-based (one generator stream per chunk keyed by
seed and chunk index, moments merged in fixed order), so equal seeds must
yield bit-identical results no matter how many worker threads run the
chunks.  Statistical correctness is checked against the exact formulas
and against scipy's Kolmogorov-Smirnov machinery.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from scipy import stats

from riskrev import montecarlo
from riskrev.exact_risk import RiskQuery, risk_segment_exact, risk_triangle_exact
from riskrev.asymptotics import _sup_candidates
from riskrev.geometry import (
    _PROJECT_BLOCK,
    ConvexPolytope,
    ExampleGeometry,
    ProjectionError,
    project_polytope_batch,
)
from riskrev.montecarlo import (
    DEFAULT_SEED,
    KS_CRITICAL_0P1,
    MCConfig,
    RiskEstimate,
    _chunk_normals,
    _losses,
    cauchy_cdf,
    cauchy_ratio_check,
    mc_risk,
    mc_risk_effective,
    mc_risks,
    sample_unit_sphere,
)


class TestContainers:
    def test_risk_estimate_validation(self):
        RiskEstimate(mean=1.0, stderr=0.1, n=100, seed=1)
        with pytest.raises(ValueError):
            RiskEstimate(mean=math.nan, stderr=0.1, n=100, seed=1)
        with pytest.raises(ValueError):
            RiskEstimate(mean=1.0, stderr=-0.1, n=100, seed=1)
        with pytest.raises(ValueError):
            RiskEstimate(mean=1.0, stderr=0.1, n=0, seed=1)

    def test_mc_config_validation(self):
        cfg = MCConfig(n=1000)
        assert cfg.seed == DEFAULT_SEED
        with pytest.raises(ValueError):
            MCConfig(n=0)
        with pytest.raises(ValueError):
            MCConfig(n=100, chunk=0)

    @pytest.mark.parametrize("field", ["n", "seed", "chunk"])
    @pytest.mark.parametrize("value", [2.7, 1.9, True, False, np.True_, math.nan, math.inf, "5", None])
    def test_mc_config_refuses_non_integral_values(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
            MCConfig(**{"n": 1000, field: value})

    @pytest.mark.parametrize("value", [1e6, 5.0, np.int64(5), np.float64(8.0), np.uint8(3)])
    def test_mc_config_keeps_integral_values(self, value):
        for field in ("n", "seed", "chunk"):
            cfg = MCConfig(**{"n": 1000, field: value})
            assert getattr(cfg, field) == int(value)
            assert type(getattr(cfg, field)) is int


class TestDeterminism:
    def test_same_seed_same_bits(self):
        g = ExampleGeometry(c=1.0)
        q = RiskQuery(theta_star=(0.0, 0.0), sigma=1.0)
        cfg = MCConfig(n=50_000, seed=99, chunk=4096)
        a = mc_risk(g.triangle(), q, cfg)
        b = mc_risk(g.triangle(), q, cfg)
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_different_seeds_differ(self):
        g = ExampleGeometry(c=1.0)
        q = RiskQuery(theta_star=(0.0, 0.0), sigma=1.0)
        a = mc_risk(g.triangle(), q, MCConfig(n=20_000, seed=1))
        b = mc_risk(g.triangle(), q, MCConfig(n=20_000, seed=2))
        assert a.mean != b.mean

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        g = ExampleGeometry(c=0.5)
        q = RiskQuery(theta_star=(0.0, 0.0), sigma=2.0)
        cfg = MCConfig(n=40_000, seed=7, chunk=2048)
        monkeypatch.setenv("RISKREV_THREADS", "1")
        serial = mc_risk(g.triangle(), q, cfg)
        monkeypatch.setenv("RISKREV_THREADS", "4")
        threaded = mc_risk(g.triangle(), q, cfg)
        assert serial.mean == threaded.mean
        assert serial.stderr == threaded.stderr

    def test_invalid_thread_env_rejected(self, monkeypatch):
        g = ExampleGeometry(c=1.0)
        q = RiskQuery(theta_star=(0.0, 0.0), sigma=1.0)
        monkeypatch.setenv("RISKREV_THREADS", "zero")
        with pytest.raises(ValueError):
            mc_risk(g.triangle(), q, MCConfig(n=1000))
        monkeypatch.setenv("RISKREV_THREADS", "0")
        with pytest.raises(ValueError):
            mc_risk(g.triangle(), q, MCConfig(n=1000))

    def test_partial_final_chunk(self):
        # n that is not a chunk multiple exercises the tail chunk path
        g = ExampleGeometry(c=1.0)
        q = RiskQuery(theta_star=(0.0, 0.0), sigma=1.0)
        est = mc_risk(g.triangle(), q, MCConfig(n=10_001, seed=5, chunk=4096))
        assert est.n == 10_001


SHARED_CASES = {
    # chunks of three blocks, the last one partial, and a partial last chunk
    "triangle": (
        ExampleGeometry(c=0.75, x=0.5).theta_x_polytope(),
        MCConfig(n=2 * (2 * _PROJECT_BLOCK + 100) + 5000, seed=17, chunk=2 * _PROJECT_BLOCK + 100),
    ),
    "pentagon": (
        ConvexPolytope([[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]]),
        MCConfig(n=3 * 4096 + 123, seed=3, chunk=4096),
    ),
    "segment": (ExampleGeometry(c=2.0).segment(), MCConfig(n=3 * 4096 + 123, seed=5, chunk=4096)),
    "simplex_3d": (
        ConvexPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        MCConfig(n=700, seed=11, chunk=256),
    ),
}


# sha256 of the 99 means, then the 99 stderrs, packed little-endian, of the
# reversal candidates of theta_x_polytope(c=0.75, x=1.3) at sigma = 5
PINNED_REVERSAL_DIGESTS = {
    1: "e67fa7cebefee9233cadcb7fa2c67e3b010acd2b57ed5fec541c07f33ee685d3",
    7: "52d8fbf0042a586fe09dcd3a62d8dfc9b3a5d8badd40300e997b65513cac3565",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("seed", sorted(PINNED_REVERSAL_DIGESTS))
    def test_reversal_candidates_keep_their_bits(self, seed):
        # two chunks, the second with a partial last block
        poly = ExampleGeometry(c=0.75, x=1.3).theta_x_polytope()
        candidates = _sup_candidates(poly, 32)
        assert len(candidates) == 99
        cfg = MCConfig(n=3 * _PROJECT_BLOCK + 7, seed=seed, chunk=2 * _PROJECT_BLOCK)
        estimates = mc_risks(poly, candidates, 5.0, cfg)
        values = [e.mean for e in estimates] + [e.stderr for e in estimates]
        digest = hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
        assert digest == PINNED_REVERSAL_DIGESTS[seed]


class TestSharedCandidates:
    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_each_candidate_matches_mc_risk_bitwise(self, monkeypatch, case, threads):
        monkeypatch.setenv("RISKREV_THREADS", threads)
        poly, cfg = SHARED_CASES[case]
        if poly.dim == 2:
            candidates = _sup_candidates(poly, 2)
        else:
            candidates = np.vstack([poly.vertices, poly.vertices.mean(axis=0)])
        shared = mc_risks(poly, candidates, 1.7, cfg)
        assert len(shared) == len(candidates)
        for theta, est in zip(candidates, shared):
            single = mc_risk(poly, RiskQuery(theta_star=tuple(theta), sigma=1.7), cfg)
            assert est == single

    @pytest.mark.parametrize("case", sorted(SHARED_CASES) + ["point"])
    def test_blocked_losses_match_whole_chunk_expressions(self, case):
        # the per-block loss loop against theta + sigma z, the public batch
        # projection and einsum over the whole chunk
        if case == "point":
            poly, cfg = ConvexPolytope([[0.3, -0.2]]), SHARED_CASES["segment"][1]
        else:
            poly, cfg = SHARED_CASES[case]
        if poly.dim == 2 and poly.n_vertices > 1:
            thetas = _sup_candidates(poly, 1)
        else:
            thetas = np.vstack([poly.vertices, poly.vertices.mean(axis=0)])
        z = _chunk_normals(cfg.seed, 1, cfg.chunk - 1, poly.dim)
        blocked = [loss.copy() for loss in _losses(poly, thetas, 1.7, cfg.chunk, z)]
        assert len(blocked) == len(thetas)
        for theta, got in zip(thetas, blocked):
            projected = project_polytope_batch(poly, theta + 1.7 * z)
            want = np.einsum("ij,ij->i", projected - theta, projected - theta)
            assert got.tobytes() == want.tobytes()

    def test_segment_at_huge_noise(self):
        # |y| ~ 1e200 overflows a squared distance but not the segment's
        # foot, so these samples project to an endpoint and do not raise
        seg = ExampleGeometry(c=2.0).segment()
        cfg = MCConfig(n=5000, seed=3)
        est = mc_risk(seg, RiskQuery(theta_star=(0.0, 0.0), sigma=1e200), cfg)
        z = _chunk_normals(cfg.seed, 0, cfg.n, 2)
        projected = project_polytope_batch(seg, 1e200 * z)
        loss = np.einsum("ij,ij->i", projected, projected)
        assert est.mean == float(loss.mean())
        m2 = float(np.sum((loss - est.mean) ** 2))
        assert est.stderr == math.sqrt(m2 / (cfg.n - 1) / cfg.n)
        assert set(np.unique(loss)) == {0.0, seg.squared_diameter()}

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        tri = ExampleGeometry(c=1.0).triangle()
        with pytest.raises(ValueError, match=rf"^sigma must be a positive finite real, got {sigma!r}$"):
            mc_risks(tri, [[0.0, 0.0]], sigma, MCConfig(n=100))

    def test_non_finite_candidate_rejected(self):
        tri = ExampleGeometry(c=1.0).triangle()
        with pytest.raises(ValueError, match=r"^theta_star must be finite$"):
            mc_risks(tri, [[0.0, 0.0], [math.nan, 0.5]], 1.0, MCConfig(n=100))

    def test_candidate_outside_rejected(self):
        tri = ExampleGeometry(c=1.0).triangle()
        with pytest.raises(ValueError, match="must belong"):
            mc_risks(tri, [[0.0, 0.0], [5.0, 5.0]], 1.0, MCConfig(n=100))

    def test_overflowing_noise_raises(self):
        tri = ExampleGeometry(c=0.75).triangle()
        q = RiskQuery(theta_star=(0.0, 0.0), sigma=1e160)
        with pytest.raises(ProjectionError, match="no finite distance"):
            mc_risk(tri, q, MCConfig(n=1000))

    # at 1e154 only draws with |z|^2 > 1.8 overflow; seed 31 has its first in the second chunk
    @pytest.mark.parametrize("sigma, seed", [(1e160, 1), (1e154, 31)])
    def test_overflowing_noise_names_the_sample_in_3d(self, sigma, seed):
        simplex, _ = SHARED_CASES["simplex_3d"]
        cfg = MCConfig(n=12, seed=seed, chunk=4)
        z = np.vstack([_chunk_normals(seed, j, 4, 3) for j in range(3)])
        with np.errstate(over="ignore"):
            overflow = ~np.isfinite(np.sum((sigma * z) ** 2, axis=1))
        first = int(np.argmax(overflow))
        q = RiskQuery(theta_star=(0.0, 0.0, 0.0), sigma=sigma)
        with pytest.raises(ProjectionError, match=rf"^point {first} .*no finite norm"):
            mc_risk(simplex, q, cfg)


class TestStatisticalAgreement:
    def test_triangle_matches_exact(self):
        g = ExampleGeometry(c=1.0)
        exact = risk_triangle_exact(g, 1.0).total
        est = mc_risk(
            g.triangle(), RiskQuery(theta_star=(0.0, 0.0), sigma=1.0), MCConfig(n=200_000)
        )
        assert abs(est.mean - exact) <= 4.0 * est.stderr

    def test_segment_matches_exact_at_interior_point(self):
        g = ExampleGeometry(c=2.0)
        t_star = 0.4
        exact = risk_segment_exact(g, t_star, 0.7)
        est = mc_risk(
            g.segment(),
            RiskQuery(theta_star=tuple(t_star * g.v2), sigma=0.7),
            MCConfig(n=200_000),
        )
        assert abs(est.mean - exact) <= 4.0 * est.stderr

    def test_losses_cannot_exceed_squared_diameter(self):
        # with huge noise almost every draw projects across the set
        poly = ConvexPolytope([[0.0, 0.0], [0.5, 0.25]])
        est = mc_risk(
            poly, RiskQuery(theta_star=(0.0, 0.0), sigma=80.0), MCConfig(n=50_000)
        )
        assert est.mean <= poly.squared_diameter()

    def test_theta_outside_polytope_rejected(self):
        g = ExampleGeometry(c=1.0)
        with pytest.raises(ValueError):
            mc_risk(
                g.triangle(), RiskQuery(theta_star=(5.0, 5.0), sigma=1.0), MCConfig(n=100)
            )

    def test_higher_dimensional_route(self):
        # a 3D simplex runs through the batch min-norm-point projector
        poly = ConvexPolytope(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        est = mc_risk(
            poly, RiskQuery(theta_star=(0.0, 0.0, 0.0), sigma=0.5), MCConfig(n=2000)
        )
        assert 0.0 < est.mean <= poly.squared_diameter()


class TestEffectiveNoise:
    def test_matches_rescaled_sigma_bitwise(self):
        g = ExampleGeometry(c=1.0)
        cfg = MCConfig(n=30_000, seed=17)
        direct = mc_risk(
            g.triangle(), RiskQuery(theta_star=(0.0, 0.0), sigma=2.0 / math.sqrt(8)), cfg
        )
        effective = mc_risk_effective(g.triangle(), (0.0, 0.0), 2.0, 8, cfg)
        assert direct.mean == effective.mean
        assert direct.stderr == effective.stderr

    def test_rejects_bad_n_obs(self):
        g = ExampleGeometry(c=1.0)
        with pytest.raises(ValueError):
            mc_risk_effective(g.triangle(), (0.0, 0.0), 1.0, 0, MCConfig(n=100))

    @pytest.mark.parametrize("n_obs", [2.7, True])
    def test_rejects_non_integral_n_obs(self, n_obs):
        g = ExampleGeometry(c=1.0)
        with pytest.raises(ValueError, match=r"^n_obs must be an integer"):
            mc_risk_effective(g.triangle(), (0.0, 0.0), 1.0, n_obs, MCConfig(n=100))

    @pytest.mark.parametrize("n_obs", [5.0, np.int64(5)])
    def test_integral_n_obs_is_the_int(self, n_obs):
        g = ExampleGeometry(c=1.0)
        cfg = MCConfig(n=1000, seed=3)
        want = mc_risk_effective(g.triangle(), (0.0, 0.0), 1.0, 5, cfg)
        assert mc_risk_effective(g.triangle(), (0.0, 0.0), 1.0, n_obs, cfg) == want


class TestUnitSphere:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unit_norms(self, d):
        pts = sample_unit_sphere(d, 5000, seed=3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = sample_unit_sphere(2, 1000, seed=12)
        b = sample_unit_sphere(2, 1000, seed=12)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [1, 3])
    def test_is_the_normalised_chunk_draw(self, d):
        z = _chunk_normals(12, 0, 1000, d)
        want = z / np.linalg.norm(z, axis=1)[:, None]
        assert sample_unit_sphere(d, 1000, seed=12).tobytes() == want.tobytes()

    def test_zero_draw_raises(self, monkeypatch):
        def zero_row(seed, chunk_index, m, d):
            z = np.ones((m, d))
            z[2] = 0.0
            return z

        monkeypatch.setattr(montecarlo, "_chunk_normals", zero_row)
        with pytest.raises(ValueError, match="zero vector at row 2"):
            sample_unit_sphere(3, 5, seed=1)

    @pytest.mark.parametrize("name, d, n", [("d", 2.9, 3), ("n", 2, 3.5), ("d", True, 3), ("n", 2, True)])
    def test_rejects_non_integral_sizes(self, name, d, n):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            sample_unit_sphere(d, n, seed=1)

    @pytest.mark.parametrize("value", [5.0, np.int64(5)])
    def test_integral_sizes_are_the_ints(self, value):
        want = sample_unit_sphere(5, 5, seed=1)
        assert sample_unit_sphere(value, 5, seed=1).tobytes() == want.tobytes()
        assert sample_unit_sphere(5, value, seed=1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer"):
            sample_unit_sphere(2, 5, seed)

    @pytest.mark.parametrize("seed", [5.0, np.int64(5)])
    def test_integral_seed_is_the_int(self, seed):
        assert sample_unit_sphere(2, 5, seed).tobytes() == sample_unit_sphere(2, 5, 5).tobytes()

    def test_directions_cover_all_quadrants(self):
        pts = sample_unit_sphere(2, 4000, seed=4)
        signs = {(sx, sy) for sx, sy in np.sign(pts).astype(int)}
        assert {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= signs


class TestCauchyRatio:
    """Coordinate ratios of uniform circle directions are standard Cauchy,
    with or without halfplane conditioning."""

    def test_cdf_values(self):
        assert cauchy_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert cauchy_cdf(1.0) == pytest.approx(0.75, abs=1e-15)
        assert cauchy_cdf(-1.0) == pytest.approx(0.25, abs=1e-15)

    def test_report_with_default_seed_passes(self):
        report = cauchy_ratio_check(n=50_000)
        assert report.scaled_full < KS_CRITICAL_0P1
        assert report.scaled_cond_first < KS_CRITICAL_0P1
        assert report.scaled_cond_second < KS_CRITICAL_0P1

    def test_distance_matches_scipy(self):
        # same statistic scipy computes for a one-sample KS test
        report = cauchy_ratio_check(n=20_000, seed=21)
        pts = sample_unit_sphere(2, 20_000, seed=21)
        ratios = pts[:, 1] / pts[:, 0]
        scipy_stat = stats.kstest(ratios, stats.cauchy.cdf).statistic
        assert report.d_full == pytest.approx(scipy_stat, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            cauchy_ratio_check(n=10)

    @pytest.mark.parametrize("n", [2000.7, True])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer"):
            cauchy_ratio_check(n=n)

    @pytest.mark.parametrize("n", [2000.0, np.int64(2000)])
    def test_integral_n_is_the_int(self, n):
        assert cauchy_ratio_check(n=n, seed=4) == cauchy_ratio_check(n=2000, seed=4)

    @pytest.mark.parametrize("seed", [2.7, True])
    def test_rejects_non_integral_seed(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer"):
            cauchy_ratio_check(n=2000, seed=seed)

    @pytest.mark.parametrize("seed", [5.0, np.int64(5)])
    def test_integral_seed_is_the_int(self, seed):
        report = cauchy_ratio_check(n=2000, seed=seed)
        assert report == cauchy_ratio_check(n=2000, seed=5)
        assert type(report.seed) is int
