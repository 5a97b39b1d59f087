"""Exact risk formulas: internal consistency, limits, and Monte Carlo checks.

Two independent routes certify the closed forms.  First, the per-region
decomposition implemented in the package must reproduce, to near machine
precision, the single-expression display forms written out below in this
test file (a different algebraic grouping of the same quantities).
Second, reduced-size Monte Carlo runs must agree statistically, both in
total and region by region; the full-size agreement sweep lives in the
acceptance tests.
"""

import math

import numpy as np
import pytest

from riskrev.exact_risk import (
    RegionRiskBreakdown,
    _int_z2_phi,
    RiskQuery,
    large_noise_limit_diff,
    risk_difference,
    risk_segment_exact,
    risk_triangle_exact,
    small_noise_diff_coeff,
)
from riskrev.gaussfn import owens_t, std_normal_cdf, std_normal_cdf_minus_half, std_normal_pdf
from riskrev.geometry import ExampleGeometry, RegionLabel, project_triangle_example

GRID_C = [0.2, 0.5, 1.0, 2.0, 5.0]
DISPLAY_TOL = 1e-12


def segment_risk_display(c: float, sigma: float) -> float:
    """Single-expression form of the segment risk at the bottom vertex."""
    alpha = 1.0 + 1.0 / (c * c)
    u = math.sqrt(alpha) / sigma
    return sigma * sigma * (
        std_normal_cdf(u) - 0.5 - u * std_normal_pdf(u)
    ) + alpha * std_normal_cdf(-u)


def triangle_risk_display(c: float, sigma: float) -> float:
    """Single-expression form of the triangle risk at the bottom vertex.

    Groups the seven region contributions differently from the
    implementation, so agreement checks the algebra, not the code path.
    """
    alpha = 1.0 + 1.0 / (c * c)
    s2 = sigma * sigma
    u1 = 1.0 / sigma
    uc = 1.0 / (c * sigma)
    ua = math.sqrt(alpha) / sigma
    root = math.sqrt(c * c + 1.0)
    return (
        -sigma * std_normal_pdf(u1) * std_normal_cdf(uc)
        + s2
        * (
            0.5 * std_normal_cdf_minus_half(u1)
            - 2.0 * owens_t(u1, 1.0 / c)
            + math.atan(1.0 / c) / math.pi
        )
        + std_normal_cdf(-u1)
        * (
            s2 * (std_normal_cdf(uc) - uc * std_normal_pdf(uc) - 0.5)
            + std_normal_cdf(uc)
        )
        + 0.5 * s2 * (std_normal_cdf(ua) - ua * std_normal_pdf(ua) - 0.5)
        + alpha
        * (
            std_normal_cdf(-uc) * std_normal_cdf(-ua)
            + owens_t(uc, root)
            + owens_t(ua, 1.0 / root)
            - owens_t(uc, c)
        )
    )


def _mc_region_means(g, sigma, n, seed):
    """Per-region mean squared losses at theta* = v1 by direct simulation."""
    rng = np.random.default_rng(seed)
    Y = sigma * rng.standard_normal((n, 2))
    sums = {label: 0.0 for label in RegionLabel}
    sq = {label: 0.0 for label in RegionLabel}
    counts = {label: 0 for label in RegionLabel}
    for y in Y:
        p, label = project_triangle_example(g, y)
        loss = float(p @ p)
        sums[label] += loss
        sq[label] += loss * loss
        counts[label] += 1
    means = {label: sums[label] / n for label in RegionLabel}
    stderrs = {
        label: math.sqrt(max(sq[label] / n - means[label] ** 2, 0.0) / n)
        for label in RegionLabel
    }
    return means, stderrs, counts


class TestRiskQuery:
    def test_validation(self):
        q = RiskQuery(theta_star=(0.5, 1.0), sigma=0.3)
        np.testing.assert_allclose(q.theta, [0.5, 1.0])
        with pytest.raises(ValueError):
            RiskQuery(theta_star=(0.0, 0.0), sigma=0.0)
        with pytest.raises(ValueError):
            RiskQuery(theta_star=(0.0, math.inf), sigma=1.0)


class TestBreakdownContainer:
    def test_requires_all_regions(self):
        with pytest.raises(ValueError):
            RegionRiskBreakdown(regions={RegionLabel.A1: 0.0}, total=0.0)

    def test_rejects_negative_contribution(self):
        regions = {label: 0.1 for label in RegionLabel}
        regions[RegionLabel.A2] = -1e-3
        with pytest.raises(ValueError):
            RegionRiskBreakdown(regions=regions, total=sum(regions.values()))

    def test_rejects_inconsistent_total(self):
        regions = {label: 0.125 for label in RegionLabel}
        with pytest.raises(ValueError):
            RegionRiskBreakdown(regions=regions, total=1.0)

    def test_total_and_lookup(self):
        regions = {label: 0.125 for label in RegionLabel}
        b = RegionRiskBreakdown(regions=regions, total=7 * 0.125)
        assert b.total == pytest.approx(7 * 0.125, abs=1e-15)
        assert b[RegionLabel.A23] == 0.125


class TestDisplayFormAgreement:
    """Implementation (region sums) vs single-expression display forms."""

    def test_segment_random_sweep(self):
        rng = np.random.default_rng(20240613)
        for _ in range(200):
            c = rng.uniform(0.1, 5.0)
            sigma = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            got = risk_segment_exact(ExampleGeometry(c=c), 0.0, sigma)
            want = segment_risk_display(c, sigma)
            assert abs(got - want) <= DISPLAY_TOL * max(1.0, abs(want))

    def test_triangle_random_sweep(self):
        rng = np.random.default_rng(20240614)
        for _ in range(200):
            c = rng.uniform(0.1, 5.0)
            sigma = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            got = risk_triangle_exact(ExampleGeometry(c=c), sigma).total
            want = triangle_risk_display(c, sigma)
            assert abs(got - want) <= DISPLAY_TOL * max(1.0, abs(want))

    @pytest.mark.parametrize("c", GRID_C)
    @pytest.mark.parametrize("sigma", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_grid_corners(self, c, sigma):
        got = risk_triangle_exact(ExampleGeometry(c=c), sigma).total
        want = triangle_risk_display(c, sigma)
        assert abs(got - want) <= DISPLAY_TOL * max(1.0, abs(want))


# integral_a^b z^2 phi(z) dz at the exact binary values of a and b, computed
# once with mpmath at 150 digits (incomplete gamma and Phi routes agreeing to
# 60 digits) and rounded to 50
INT_Z2_PHI_REFERENCE = [
    (0.0, 1e-07, "1.3298076013381047565147682456135990366174937747739e-22"),
    (0.0, 0.001, "1.3298072023958998477640061810894715949040017616148e-10"),
    (0.0, 0.5, "0.015429797891863364750364389810078913328444585366722"),
    (0.0, 2.0, "0.3692679350254446888985889620120393990485946954046"),
    (0.0, 40.0, "0.5"),
    (-1e-07, 2e-07, "1.1968268412042847062485617867556225527401763832759e-21"),
    (-3e-05, 1e-05, "3.7234612827732861356029922439817262726929613312435e-15"),
    (-0.7, 1.9, "0.38607198653230675463613104583761432600465570883395"),
    (-2.5, -0.1, "0.44983700091097471649123915322520999672023821714493"),
    (-1e8, 1e8, "1.0"),
]


class TestIntZ2Phi:
    @pytest.mark.parametrize("a, b, want", INT_Z2_PHI_REFERENCE)
    def test_matches_high_precision_reference(self, a, b, want):
        assert _int_z2_phi(a, b) == pytest.approx(float(want), rel=1e-14, abs=0.0)


# sigma grid of the array tests: the documented domain, 1e-8 to 1e12
SIGMA_SWEEP = np.geomspace(1e-8, 1e12, 241)


def _bits(value):
    return np.float64(value).tobytes()


class TestArrayValuedSigma:
    """A 1-D sigma gives, entry by entry, the bits of the scalar call."""

    @pytest.mark.parametrize("c", GRID_C)
    def test_triangle_entries_equal_scalar_calls(self, c):
        g = ExampleGeometry(c=c)
        arrays = risk_triangle_exact(g, SIGMA_SWEEP)
        assert arrays.total.shape == SIGMA_SWEEP.shape
        for i, sigma in enumerate(SIGMA_SWEEP):
            one = risk_triangle_exact(g, float(sigma))
            assert _bits(one.total) == _bits(arrays.total[i]), sigma
            for label in RegionLabel:
                assert _bits(one[label]) == _bits(arrays[label][i]), (sigma, label)

    @pytest.mark.parametrize("c", GRID_C)
    @pytest.mark.parametrize("t_star", [0.0, 0.3, 1.0])
    def test_segment_entries_equal_scalar_calls(self, c, t_star):
        g = ExampleGeometry(c=c)
        arrays = risk_segment_exact(g, t_star, SIGMA_SWEEP)
        assert arrays.shape == SIGMA_SWEEP.shape
        for i, sigma in enumerate(SIGMA_SWEEP):
            assert _bits(risk_segment_exact(g, t_star, float(sigma))) == _bits(arrays[i]), sigma

    def test_difference_entries_equal_scalar_calls(self):
        g = ExampleGeometry(c=0.5)
        arrays = risk_difference(g, SIGMA_SWEEP)
        assert [_bits(risk_difference(g, float(s))) for s in SIGMA_SWEEP] == [_bits(v) for v in arrays]

    @pytest.mark.parametrize("sigma", [2.0, np.float64(2.0), np.array(2.0), 2])
    def test_scalar_sigma_gives_python_floats(self, sigma):
        g = ExampleGeometry(c=0.75)
        b = risk_triangle_exact(g, sigma)
        assert type(b.total) is float
        assert all(type(b[label]) is float for label in RegionLabel)
        for t_star in (0.0, 0.3, 1.0):
            assert type(risk_segment_exact(g, t_star, sigma)) is float
        assert type(risk_difference(g, sigma)) is float

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_bad_entry_raises(self, bad, position):
        g = ExampleGeometry(c=0.75)
        sigma = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        sigma[position] = bad
        for call in (
            lambda: risk_triangle_exact(g, sigma),
            lambda: risk_segment_exact(g, 0.3, sigma),
            lambda: risk_difference(g, sigma),
        ):
            with pytest.raises(ValueError, match=rf"^sigma must be a positive finite real, got {bad!r}$"):
                call()

    def test_breakdown_of_arrays_names_the_bad_region(self):
        regions = {label: np.full(4, 0.125) for label in RegionLabel}
        regions[RegionLabel.A13] = np.array([0.125, 0.125, -1e-3, 0.125])
        with pytest.raises(ValueError, match=r"^region A13 contribution -0\.001 is invalid$"):
            RegionRiskBreakdown(regions=regions, total=sum(regions.values()))
        regions[RegionLabel.A13] = np.full(4, 0.125)
        total = sum(regions.values())
        total[3] += 1e-6
        with pytest.raises(ValueError, match="total does not match"):
            RegionRiskBreakdown(regions=regions, total=total)

    def test_int_z2_phi_is_elementwise(self):
        a = np.array([ref[0] for ref in INT_Z2_PHI_REFERENCE])
        b = np.array([ref[1] for ref in INT_Z2_PHI_REFERENCE])
        got = _int_z2_phi(a, b)
        for i, (lo, hi, want) in enumerate(INT_Z2_PHI_REFERENCE):
            assert _bits(got[i]) == _bits(_int_z2_phi(lo, hi))
            assert got[i] == pytest.approx(float(want), rel=1e-14, abs=0.0)


class TestSlopeGrid:
    """A sequence of geometries gives one row per slope, each the bits of its own call."""

    # the benchmark heatmap's slopes include one (1.6211...) where numpy's
    # arctan and math.atan differ in the last bit
    GEOMETRIES = [ExampleGeometry(c=c) for c in GRID_C + [0.75, 3.0] + list(np.linspace(0.2, 3.0, 200))]

    def test_triangle_rows_equal_per_c_calls(self):
        grid = risk_triangle_exact(self.GEOMETRIES, SIGMA_SWEEP)
        assert grid.total.shape == (len(self.GEOMETRIES), len(SIGMA_SWEEP))
        for i, g in enumerate(self.GEOMETRIES):
            one = risk_triangle_exact(g, SIGMA_SWEEP)
            assert grid.total[i].tobytes() == one.total.tobytes(), g.c
            for label in RegionLabel:
                assert grid[label].shape == grid.total.shape, label
                assert grid[label][i].tobytes() == one[label].tobytes(), (g.c, label)

    @pytest.mark.parametrize("t_star", [0.0, 0.3, 1.0])
    def test_segment_rows_equal_per_c_calls(self, t_star):
        grid = risk_segment_exact(self.GEOMETRIES, t_star, SIGMA_SWEEP)
        assert grid.shape == (len(self.GEOMETRIES), len(SIGMA_SWEEP))
        for i, g in enumerate(self.GEOMETRIES):
            assert grid[i].tobytes() == risk_segment_exact(g, t_star, SIGMA_SWEEP).tobytes(), g.c

    def test_difference_rows_equal_per_c_calls(self):
        grid = risk_difference(self.GEOMETRIES, SIGMA_SWEEP)
        for i, g in enumerate(self.GEOMETRIES):
            assert grid[i].tobytes() == risk_difference(g, SIGMA_SWEEP).tobytes(), g.c

    def test_scalar_sigma_gives_one_entry_per_slope(self):
        grid = risk_triangle_exact(self.GEOMETRIES, 2.0)
        assert grid.total.shape == (len(self.GEOMETRIES),)
        assert [_bits(v) for v in grid.total] == [
            _bits(risk_triangle_exact(g, 2.0).total) for g in self.GEOMETRIES
        ]

    def test_bad_sigma_entry_raises(self):
        sigma = np.array([0.5, 1.0, -2.0])
        with pytest.raises(ValueError, match=r"^sigma must be a positive finite real, got -2\.0$"):
            risk_triangle_exact(self.GEOMETRIES, sigma)


class TestSegmentRisk:
    def test_endpoint_symmetry(self):
        # isotropic noise cannot tell the two segment endpoints apart
        for c in GRID_C:
            g = ExampleGeometry(c=c)
            for sigma in (0.2, 1.0, 7.0):
                assert risk_segment_exact(g, 0.3, sigma) == pytest.approx(
                    risk_segment_exact(g, 0.7, sigma), rel=1e-12
                )
                assert risk_segment_exact(g, 0.0, sigma) == pytest.approx(
                    risk_segment_exact(g, 1.0, sigma), rel=1e-12
                )

    def test_interior_small_noise_dimension_is_one(self):
        # at a relative interior point the local model is a line
        g = ExampleGeometry(c=1.0)
        sigma = 1e-3
        assert risk_segment_exact(g, 0.5, sigma) / sigma**2 == pytest.approx(1.0, rel=1e-6)

    def test_vertex_small_noise_dimension_is_half(self):
        for c in GRID_C:
            sigma = 1e-3
            got = risk_segment_exact(ExampleGeometry(c=c), 0.0, sigma) / sigma**2
            assert got == pytest.approx(0.5, rel=1e-6)

    def test_large_noise_saturation(self):
        for c in (0.5, 1.0, 2.0):
            g = ExampleGeometry(c=c)
            assert risk_segment_exact(g, 0.0, 1e6) == pytest.approx(
                g.alpha_c / 2.0, abs=1e-5
            )

    def test_invalid_inputs(self):
        g = ExampleGeometry(c=1.0)
        with pytest.raises(ValueError):
            risk_segment_exact(g, -0.1, 1.0)
        with pytest.raises(ValueError):
            risk_segment_exact(g, 0.0, 0.0)

    def test_against_monte_carlo_general_t(self):
        rng_checks = [(1.0, 0.35, 0.8, 101), (0.5, 0.6, 2.0, 102), (2.0, 0.0, 0.5, 103)]
        for c, t_star, sigma, seed in rng_checks:
            g = ExampleGeometry(c=c)
            exact = risk_segment_exact(g, t_star, sigma)
            rng = np.random.default_rng(seed)
            n = 120_000
            Y = g.v2 * t_star + sigma * rng.standard_normal((n, 2))
            # clip the segment parameter, then measure the squared error
            d = g.v2
            ts = np.clip((Y @ d) / (d @ d), 0.0, 1.0)
            losses = np.sum((ts[:, None] * d - t_star * d) ** 2, axis=1)
            mean = float(losses.mean())
            stderr = float(losses.std(ddof=1) / math.sqrt(n))
            assert abs(mean - exact) <= 4.0 * stderr


class TestTriangleRisk:
    def test_region_a1_contributes_nothing(self):
        # points projecting to the base vertex incur zero loss there
        for c in GRID_C:
            b = risk_triangle_exact(ExampleGeometry(c=c), 1.3)
            assert b[RegionLabel.A1] == 0.0

    def test_regions_against_monte_carlo(self):
        for c, sigma, seed in [(1.0, 1.0, 11), (0.5, 2.0, 12), (2.0, 0.7, 13)]:
            g = ExampleGeometry(c=c)
            exact = risk_triangle_exact(g, sigma)
            means, stderrs, counts = _mc_region_means(g, sigma, 60_000, seed)
            for label in RegionLabel:
                if counts[label] == 0:
                    continue
                tol = 4.0 * stderrs[label] + 1e-12
                assert abs(means[label] - exact[label]) <= tol, (c, sigma, label)

    def test_small_noise_wedge_dimension(self):
        sigma = 1e-3
        for c in GRID_C:
            got = risk_triangle_exact(ExampleGeometry(c=c), sigma).total / sigma**2
            want = 0.5 + math.atan(1.0 / c) / math.pi
            assert got == pytest.approx(want, rel=1e-6)

    def test_large_noise_saturation(self):
        for c in (0.5, 1.0, 2.0):
            g = ExampleGeometry(c=c)
            want = g.alpha_c * (0.25 + math.atan(1.0 / c) / (2.0 * math.pi)) + 0.25
            assert risk_triangle_exact(g, 1e5).total == pytest.approx(want, abs=1e-4)


class TestRiskDifference:
    def test_matches_component_formulas(self):
        g = ExampleGeometry(c=0.7)
        want = risk_segment_exact(g, 0.0, 1.3) - risk_triangle_exact(g, 1.3).total
        assert risk_difference(g, 1.3) == pytest.approx(want, abs=1e-15)

    def test_sign_pattern(self):
        # small noise always favors the smaller set; large noise flips the
        # comparison only for wide triangles
        assert risk_difference(ExampleGeometry(c=0.5), 0.01) < 0.0
        assert risk_difference(ExampleGeometry(c=0.5), 50.0) > 0.0
        assert risk_difference(ExampleGeometry(c=2.0), 50.0) < 0.0

    def test_small_noise_coefficient(self):
        for c in (0.5, 1.0, 2.0):
            got = risk_difference(ExampleGeometry(c=c), 1e-3) / 1e-6
            assert got == pytest.approx(small_noise_diff_coeff(c), rel=0.02)

    def test_small_noise_coefficient_formula(self):
        assert small_noise_diff_coeff(1.0) == pytest.approx(-0.25, abs=1e-15)
        assert small_noise_diff_coeff(math.inf if False else 1e12) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_large_noise_limit(self):
        for c in (0.5, 1.0, 2.0):
            got = risk_difference(ExampleGeometry(c=c), 1e4)
            assert got == pytest.approx(large_noise_limit_diff(c), abs=1e-3)

    def test_large_noise_limit_formula_signs(self):
        # positive for wide triangles (small c), negative for narrow ones
        assert large_noise_limit_diff(0.5) > 0.0
        assert large_noise_limit_diff(2.0) < 0.0
