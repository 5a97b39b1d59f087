"""Exact risk formulas: internal consistency, limits, and Monte Carlo checks.

Two independent routes certify the closed forms.  First, the piece-by-piece
sums implemented in the package must reproduce, to near machine
precision, the single-expression display forms written out below in this
test file (a different algebraic grouping of the same quantities).
Second, reduced-size Monte Carlo runs must agree statistically, both in
total and piece by piece; the full-size agreement sweep lives in the
acceptance tests.

The segment and triangle risks are calls of the polygon engine's kernel.
The engine is held piece by piece to the triangle's and the segment's
closed forms written below, in total to a polar Gauss-Legendre quadrature
written below, and to the two noise limits at the ends of the documented
sigma range; its bits are pinned on a seeded corpus.
"""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special

from riskrev.asymptotics import limiting_risk, statistical_dimension_2d, vertex_probabilities_2d
from riskrev import exact_risk
from riskrev.exact_risk import (
    _SERIES_S,
    _SERIES_TERMS,
    _fan_series,
    _half_z2_phi,
    _normal_mass,
    _tail,
    SIGMA_RANGE,
    RiskQuery,
    large_noise_limit_diff,
    risk_difference,
    risk_polygon_exact,
    risk_segment_exact,
    risk_triangle_exact,
    small_noise_diff_coeff,
)
from riskrev.gaussfn import owens_t, std_normal_cdf, std_normal_cdf_minus_half, std_normal_pdf
from riskrev.geometry import (
    ConvexPolytope,
    ExampleGeometry,
    RegionLabel,
    project_polytope_batch,
    project_triangle_example,
    tangent_cone_2d,
)

GRID_C = [0.2, 0.5, 1.0, 2.0, 5.0]
DISPLAY_TOL = 1e-12


def _int_z2_phi(a, b):
    """integral_a^b z^2 phi(z) dz elementwise, as the engine's band takes it: two halves from 0."""
    return _half_z2_phi(b) - _half_z2_phi(a)


def segment_risk_display(c: float, sigma: float, t_star: float = 0.0) -> float:
    """Single-expression form of the segment risk at theta* = t_star v2.

    With a = -sqrt(alpha) t*/sigma, b = sqrt(alpha)(1 - t*)/sigma and
    u(z) = Phi(z) - 1/2 - z phi(z), integral_a^b z^2 phi(z) dz = u(b) - u(a).
    """
    alpha = 1.0 + 1.0 / (c * c)
    a = -math.sqrt(alpha) * t_star / sigma
    b = math.sqrt(alpha) * (1.0 - t_star) / sigma

    def u(z):
        return std_normal_cdf(z) - 0.5 - z * std_normal_pdf(z)

    return sigma * sigma * (u(b) - u(a)) + alpha * (
        t_star * t_star * std_normal_cdf(a) + (1.0 - t_star) ** 2 * std_normal_cdf(-b)
    )


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


def triangle_pieces_display(c: float, sigma: float):
    """The triangle's pieces at theta* = v1 in closed form: the interior, the strips, the vertices.

    With x = 1/(c sigma), s = sqrt(alpha_c)/sigma and u = 1/sigma the strips
    outside v1v2, v2v3, v3v1 are (sigma^2/2) integral_0^s z^2 phi,
    Phi(-u) [(Phi(x) - 1/2) + sigma^2 integral_0^x z^2 phi] and
    (sigma^2/2) integral_0^u z^2 phi; the cones of v1, v2, v3 are 0,
    alpha_c [Phi(-s) Phi(-x) + T(x, c sqrt(alpha_c)) + T(s, 1/(c sqrt(alpha_c)))
    - T(x, c)] and Phi(-u)/2.  The interior, sigma^2 [arctan(1/c)/pi
    - 2 T(u, 1/c) - u phi(u) (Phi(x) - 1/2)], cancels at large sigma.
    """
    alpha = 1.0 + 1.0 / (c * c)
    root = math.sqrt(alpha)
    u, x, s = 1.0 / sigma, 1.0 / (c * sigma), root / sigma
    s2 = sigma * sigma
    interior = s2 * (
        math.atan(1.0 / c) / math.pi - 2.0 * owens_t(u, 1.0 / c) - u * std_normal_pdf(u) * std_normal_cdf_minus_half(x)
    )
    strips = [
        0.5 * s2 * _half_z2_phi(s),
        std_normal_cdf(-u) * (std_normal_cdf_minus_half(x) + s2 * _half_z2_phi(x)),
        0.5 * s2 * _half_z2_phi(u),
    ]
    a2 = alpha * (
        std_normal_cdf(-s) * std_normal_cdf(-x) + owens_t(x, c * root) + owens_t(s, 1.0 / (c * root)) - owens_t(x, c)
    )
    return interior, strips, [0.0, a2, 0.5 * std_normal_cdf(-u)]


def _by_region(b):
    """The triangle's pieces keyed by the :func:`project_triangle_example` region each covers."""
    return {
        RegionLabel.INTERIOR: b.interior,
        RegionLabel.A12: b.strips[0], RegionLabel.A23: b.strips[1], RegionLabel.A13: b.strips[2],
        RegionLabel.A1: b.vertices[0], RegionLabel.A2: b.vertices[1], RegionLabel.A3: b.vertices[2],
    }


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

    @pytest.mark.parametrize("c", [0.2, 0.75, 2.0])
    @pytest.mark.parametrize("t_star", [0.3, 0.7])
    @pytest.mark.parametrize("sigma", [1e-8, 1e-6, 1e-3])
    def test_segment_interior_point_at_small_noise(self, c, t_star, sigma):
        # theta* = t* v2 rounds about 5e-17 off the segment's line; both
        # edges take that one offset, so their strip weights still sum to 1
        g = ExampleGeometry(c=c)
        want = segment_risk_display(c, sigma, t_star)
        for got in (risk_segment_exact(g, t_star, sigma), risk_polygon_exact(g.segment(), t_star * g.v2, sigma).total):
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

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

    @staticmethod
    def _whole_array_half(x):
        """The series summed over every entry, |x| clipped to 1, until all converge."""
        r = np.abs(x)
        rs = np.minimum(r, 1.0)
        term = total = rs * rs * rs / 3.0
        k = 5.0
        while (term > 1e-17 * total).any():
            term = term * (rs * rs / k)
            total = total + term
            k += 2.0
        pdf = std_normal_pdf(r)
        return np.copysign(np.where(r < 1.0, total * pdf, std_normal_cdf_minus_half(r) - r * pdf), x)

    def test_series_on_small_entries_keeps_the_whole_array_bits(self):
        # each entry stops when its own term is below 1e-17 of its sum; the
        # later terms a whole-array loop adds are below half an ulp of it
        tiny = np.nextafter(0.0, 1.0)
        x = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 1e-310, 1e-160, 1e-110, np.nextafter(1.0, 0.0), 1.0, -1.0, 40.0],
            np.geomspace(1e-12, 1e12, 2001), -np.geomspace(1e-6, 30.0, 501),
            np.random.default_rng(7).standard_normal(2000),
        ])
        assert _half_z2_phi(x).tobytes() == self._whole_array_half(x).tobytes()
        for v in x[::50]:
            assert _bits(_half_z2_phi(v)) == _bits(self._whole_array_half(v)), v


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
            assert _bits(one.interior) == _bits(arrays.interior[i]), sigma
            assert one.strips.tobytes() == arrays.strips[i].tobytes(), sigma
            assert one.vertices.tobytes() == arrays.vertices[i].tobytes(), sigma

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
        assert type(b.total) is float and type(b.interior) is float
        assert b.strips.shape == b.vertices.shape == (3,)
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

    def test_breakdown_of_arrays_names_the_bad_region(self, monkeypatch):
        # a piece that is not finite fails the range check, which names its (c, sigma) cell
        gs = [ExampleGeometry(c=1.0), ExampleGeometry(c=2.0)]
        sigma = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        bracket, half = exact_risk._fan_bracket, exact_risk._half_z2_phi
        monkeypatch.setattr(
            exact_risk, "_fan_bracket",
            lambda a, tau, *rest: np.where((tau == 0.5) & (rest[-1] == 4.0), np.nan, bracket(a, tau, *rest)),
        )
        # the band is sigma^2 (_half_z2_phi(hi) - _half_z2_phi(lo)); only the segment's hi reaches 1/2
        monkeypatch.setattr(exact_risk, "_half_z2_phi", lambda x: np.where(abs(x - 0.5) < 1e-15, -np.inf, half(x)))
        with pytest.raises(FloatingPointError, match=(
            r"^triangle risk at c 2\.0, sigma 4\.0 is nan, not a finite value in \[0, 1\.25\], the squared diameter$"
        )):
            risk_triangle_exact(gs, sigma)
        # c = 1 has a segment of length sqrt(2), so the band of edge v1 -> v2
        # ends at (1 - t*) sqrt(2) / sigma, 1/2 to rounding at t* = 0.5, sigma = sqrt(2)
        with pytest.raises(FloatingPointError, match=(
            r"^segment risk at c 1\.0, sigma 1\.414\d* is -inf, not a finite value in \[0, 2\.0\]"
        )):
            risk_segment_exact(gs, 0.5, np.array([1.0, math.sqrt(2.0), 3.0]))

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
            assert grid.interior[i].tobytes() == one.interior.tobytes(), g.c
            assert grid.strips.shape == grid.vertices.shape == grid.total.shape + (3,)
            assert grid.strips[i].tobytes() == one.strips.tobytes(), g.c
            assert grid.vertices[i].tobytes() == one.vertices.tobytes(), g.c

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
            assert b.vertices[0] == 0.0

    def test_regions_against_monte_carlo(self):
        for c, sigma, seed in [(1.0, 1.0, 11), (0.5, 2.0, 12), (2.0, 0.7, 13)]:
            g = ExampleGeometry(c=c)
            exact = _by_region(risk_triangle_exact(g, sigma))
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


def _polar_risk(P, theta, sigma, nodes=10, grading=8):
    """E||Pi(theta + sigma Z) - theta||^2 by quadrature in polar coordinates around theta.

    Along each ray the loss, taken from the package's projection, is a
    quadratic in the radius between the crossings of the lines that bound
    the projector's pieces (the edge lines and, at each end of each edge,
    the line normal to it), so three samples fix it and the radial integral
    against r exp(-r^2/2) is exact.  The angular integrand is smooth between
    the directions to the vertices and along +-t and +-n of every edge; each
    such interval gets Gauss-Legendre on a mesh graded geometrically toward
    both ends.  Nothing here uses the engine's pieces or Owen's T.
    """
    v = P.vertices
    ends = np.roll(v, -1, axis=0)
    t = (ends - v) / np.hypot(*(ends - v).T)[:, None]
    normal = np.stack([t[:, 1], -t[:, 0]], axis=1)
    lines = [(v, normal), (v, t), (ends, t)]
    directions = np.vstack([v - theta, t, -t, normal, -normal])
    directions = directions[np.hypot(*directions.T) > 1e-12]
    breaks = np.unique(np.mod(np.arctan2(directions[:, 1], directions[:, 0]), 2.0 * math.pi))
    breaks = np.append(breaks, breaks[0] + 2.0 * math.pi)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 ** np.arange(grading, 0, -1)
    frac = np.concatenate([[0.0], 0.5 * half, [0.5], 1.0 - 0.5 * half[::-1], [1.0]])
    cuts = breaks[:-1, None] + np.diff(breaks)[:, None] * frac
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    angles = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * x
    weights = (0.5 * (hi - lo))[:, None] * w
    u = np.stack([np.cos(angles.ravel()), np.sin(angles.ravel())], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = np.hstack([((p - theta) * nu).sum(axis=1) / (sigma * (u @ nu.T)) for p, nu in lines])
    r_max = 40.0
    crossings = np.where((crossings > 0.0) & (crossings < r_max), crossings, r_max)
    knots = np.sort(np.hstack([np.zeros((len(u), 1)), crossings, np.full((len(u), 1), r_max)]), axis=1)
    a, b = knots[:, :-1], knots[:, 1:]
    h, mid = b - a, 0.5 * (a + b)
    # the loss at s = (r - mid) / h = -1/4, 0, 1/4 is f0, f1, f2
    r = mid[..., None] + h[..., None] * np.array([-0.25, 0.0, 0.25])
    points = theta + sigma * r[..., None] * u[:, None, None, :]
    feet = project_polytope_batch(P, points.reshape(-1, 2)).reshape(points.shape)
    f0, f1, f2 = np.moveaxis(((feet - theta) ** 2).sum(axis=-1), -1, 0)
    c0, c1, c2 = f1, 2.0 * (f2 - f0), 8.0 * (f2 - 2.0 * f1 + f0)
    # moments of r^j r exp(-r^2/2) over [a, b], j = 0, 1, 2
    ea, eb = np.exp(-0.5 * a * a), np.exp(-0.5 * b * b)
    m0 = ea - eb
    m1 = a * ea - b * eb + math.sqrt(2.0 * math.pi) * (special.ndtr(b) - special.ndtr(a))
    m2 = (a * a + 2.0) * ea - (b * b + 2.0) * eb
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = c0 * m0 + c1 * (m1 - mid * m0) / h + c2 * (m2 - 2.0 * mid * m1 + mid * mid * m0) / (h * h)
    radial = np.where(h > 0.0, radial, 0.0).sum(axis=1)
    return float(radial @ weights.ravel()) / (2.0 * math.pi)


def _random_polygons(seed, count, min_edge=0.0):
    """``count`` random 3- to 8-gons, each with three theta*: a vertex, a point of an edge, an interior point."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        P = ConvexPolytope(rng.normal(size=(int(rng.integers(3, 9)), 2)))
        v = P.vertices
        if len(v) < 3 or np.min(np.hypot(*(np.roll(v, -1, axis=0) - v).T)) < min_edge:
            continue
        inside = rng.dirichlet(np.ones(len(v))) @ v
        out.append((P, np.array([v[1], 0.3 * v[0] + 0.7 * v[1], inside])))
    return out


# interior piece of the triangle at theta* = v1: (c, sigma, 25-digit value of
# its closed form, evaluated at 120 digits, where the double form cancels)
INTERIOR_REFERENCE = [
    (0.5, 1e2, "0.00001856625537223146111784598"),
    (0.5, 1e4, "1.856807651191046659318461e-9"),
    (0.5, 1e7, "1.856807669405427369571268e-15"),
    (0.5, 1e12, "1.856807669405445583970309e-25"),
    (0.2, 1e2, "0.0001855861909004592074547263"),
    (0.2, 1e6, "1.85680766939598441966425e-12"),
    (2.0, 1e9, "2.155223187702749337755008e-20"),
]

ENGINE_TOL = 1e-12

# the engine's pin corpus: a point, and three polygons of each K = 3..8 with
# theta* at every vertex, edge midpoint and edge point 0.8 along, and three
# interior points; segments are left out
PIN_SIGMAS = np.geomspace(1e-8, 1e12, 20)
PINNED_ENGINE_DIGESTS = {
    1: "4b48f21a4b7a02bfbec19ef880a967a02334a3cdcef8ae83de2ef327ba8bc5dd",
    3: "a13c7a13d42f339b33f5887c30c1869af30b3661c65ea1c30e399740a4016043",
    4: "b321d327a31f168408c98d088157861ca6003c87db8970cbe598983e313b2702",
    5: "490acff05c05038dcea14242b559833a82bd32a9fccac68b73433fecaa8c7767",
    6: "b989134e7d1ad330165bbd76cd486b74e965e9ea381f377a29fa0b1e827e4c28",
    7: "51291facd18197806c738c2f6d1023438a0b29a63781ec3f1333d4e5ee49af9a",
    8: "c3aaea95db83760a83ecd8591c6f2905ed5b5a73af6e02bd3bef387fa8c44bb3",
}


def _pin_corpus():
    """{K: [(P, thetas), ...]} for the engine's pinned digests."""
    rng = np.random.default_rng(20261020)
    corpus = {1: [(ConvexPolytope([[0.5, -1.0]]), np.array([[0.5, -1.0]]))]}
    for k in range(3, 9):
        corpus[k] = []
        while len(corpus[k]) < 3:
            P = ConvexPolytope(rng.normal(size=(k, 2)))
            v = P.vertices
            if len(v) != k:
                continue
            ends = np.roll(v, -1, axis=0)
            thetas = np.vstack([v, 0.5 * (v + ends), 0.2 * v + 0.8 * ends, rng.dirichlet(np.ones(k), 3) @ v])
            corpus[k].append((P, thetas))
    return corpus


class TestPolygonRisk:
    @pytest.mark.parametrize("c", [0.2, 0.5, 0.75, 1.0, 2.0, 5.0])
    def test_pieces_match_the_triangle_regions(self, c):
        g = ExampleGeometry(c=c)
        for sigma in np.geomspace(1e-2, 1e2, 25):
            interior, strips, vertices = triangle_pieces_display(c, sigma)
            got = risk_polygon_exact(g.triangle(), g.v1, sigma)
            # vertices v1, v2, v3 in that order; edges v1v2, v2v3, v3v1
            pairs = [
                (got.interior, interior),
                *zip(got.strips, strips),
                *zip(got.vertices, vertices),
                (got.total, interior + sum(strips) + sum(vertices)),
            ]
            for value, want in pairs:
                assert abs(value - want) <= ENGINE_TOL * max(1.0, abs(want)), (sigma, value, want)

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.75, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("t_star", [0.0, 0.3, 1.0])
    def test_pieces_match_the_segment_terms(self, c, t_star):
        # risk_segment_exact's three terms: v1's half-plane, the band, v2's half-plane
        g = ExampleGeometry(c=c)
        root = math.sqrt(g.alpha_c)
        for sigma in np.geomspace(1e-2, 1e2, 25):
            got = risk_polygon_exact(g.segment(), t_star * g.v2, sigma)
            a, b = -root * t_star / sigma, root * (1.0 - t_star) / sigma
            pairs = [
                (got.vertices[0], g.alpha_c * t_star**2 * std_normal_cdf(a)),
                (got.strips.sum(), sigma * sigma * _int_z2_phi(a, b)),
                (got.vertices[1], g.alpha_c * (1.0 - t_star) ** 2 * std_normal_cdf(-b)),
                (got.total, risk_segment_exact(g, t_star, sigma)),
            ]
            assert got.interior == 0.0
            for value, want in pairs:
                assert abs(value - want) <= ENGINE_TOL * max(1.0, abs(want)), (sigma, value, want)

    @pytest.mark.parametrize("c", [0.2, 0.5, 0.75, 1.0, 2.0, 3.0])
    def test_closed_forms_match_the_engine_over_the_sigma_range(self, c):
        # the triangle and the segment are the engine's K = 3 and K = 2 calls, piece by piece
        g = ExampleGeometry(c=c)
        triangle = risk_triangle_exact(g, SIGMA_SWEEP)
        segment = [risk_segment_exact(g, t_star, SIGMA_SWEEP) for t_star in (0.0, 0.3, 1.0)]
        for i, sigma in enumerate(SIGMA_SWEEP):
            engine = risk_polygon_exact(g.triangle(), g.v1, sigma)
            assert _bits(triangle.total[i]) == _bits(engine.total), sigma
            assert _bits(triangle.interior[i]) == _bits(engine.interior), sigma
            assert triangle.strips[i].tobytes() == engine.strips.tobytes(), sigma
            assert triangle.vertices[i].tobytes() == engine.vertices.tobytes(), sigma
            for t_star, row in zip((0.0, 0.3, 1.0), segment):
                want = risk_polygon_exact(g.segment(), t_star * g.v2, sigma).total
                assert _bits(row[i]) == _bits(want), (t_star, sigma)

    @pytest.mark.parametrize("c, sigma, want", INTERIOR_REFERENCE)
    def test_interior_matches_high_precision_reference(self, c, sigma, want):
        got = risk_polygon_exact(ExampleGeometry(c=c).triangle(), (0.0, 0.0), sigma).interior
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0)

    def test_random_polygons_match_polar_quadrature(self):
        for P, thetas in _random_polygons(17, 6):
            for sigma in (0.3, 3.0):
                got = risk_polygon_exact(P, thetas, sigma).total
                for theta, value in zip(thetas, got):
                    want = _polar_risk(P, theta, sigma)
                    assert abs(value - want) <= ENGINE_TOL * max(1.0, want), (P.vertices, theta, sigma)

    def test_large_noise_approaches_the_limiting_risk(self):
        # risk = limit + c1 / sigma + O(sigma^-2); c1 is read off at sigma = 1e7
        for P, thetas in _random_polygons(18, 10):
            dist = vertex_probabilities_2d(P)
            for theta in thetas:
                limit = limiting_risk(P, theta, dist)
                c1 = (risk_polygon_exact(P, theta, 1e7).total - limit) * 1e7
                for sigma in (1e8, 1e9, 1e10, 1e11, 1e12):
                    got = risk_polygon_exact(P, theta, sigma).total
                    assert abs(got - (limit + c1 / sigma)) <= 1e-14 * max(1.0, limit), (theta, sigma)

    def test_small_noise_approaches_the_statistical_dimension(self):
        # edges of at least 0.2 keep the other pieces exp(-100) away at sigma = 1e-4
        for P, thetas in _random_polygons(19, 10, min_edge=0.2):
            for theta in thetas:
                delta = statistical_dimension_2d(tangent_cone_2d(P, theta))
                for sigma in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
                    got = risk_polygon_exact(P, theta, sigma).total
                    assert got == pytest.approx(sigma * sigma * delta, rel=1e-12, abs=0.0), (theta, sigma)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-6, 1e-8])
    def test_small_noise_next_to_a_vertex_cone_boundary(self, sigma):
        # theta* on the bottom edge, 3 sigma from the line that bounds the
        # far corner's normal cone: that cone's mass must not be a difference of halves
        tilt = 3.0 * sigma / 0.5
        P = ConvexPolytope([[0.0, 0.0], [1.0, 0.0], [1.0 + tilt, math.sqrt(1.0 - tilt * tilt)], [0.0, 1.0]])
        got = risk_polygon_exact(P, (0.5, 0.0), sigma)
        assert got.total == pytest.approx(1.5 * sigma * sigma, rel=1e-12, abs=0.0)

    def test_rows_are_the_single_theta_calls(self):
        for P, thetas in _random_polygons(20, 4):
            for sigma in (1e-3, 1.0, 1e3):
                rows = risk_polygon_exact(P, thetas, sigma)
                for i, theta in enumerate(thetas):
                    one = risk_polygon_exact(P, theta, sigma)
                    assert type(one.total) is float and type(one.interior) is float
                    assert _bits(one.total) == _bits(rows.total[i])
                    assert np.array_equal(one.strips, rows.strips[i])
                    assert np.array_equal(one.vertices, rows.vertices[i])

    def test_bits_pinned(self):
        # sha256 of the interior, strips, vertices and totals over the corpus,
        # recorded before the segment and triangle risks became engine calls
        for k, cases in _pin_corpus().items():
            digest = hashlib.sha256()
            for P, thetas in cases:
                for sigma in PIN_SIGMAS:
                    got = risk_polygon_exact(P, thetas, float(sigma))
                    for part in (got.interior, got.strips, got.vertices, got.total):
                        digest.update(np.ascontiguousarray(part).tobytes())
            assert digest.hexdigest() == PINNED_ENGINE_DIGESTS[k], k

    def test_sigma_array_columns_are_the_scalar_calls(self):
        corpus = [case for cases in _pin_corpus().values() for case in cases[:1]]
        g = ExampleGeometry(c=0.75)
        corpus.append((g.segment(), np.array([g.v1, 0.3 * g.v2, g.v2])))
        for P, thetas in corpus:
            grid = risk_polygon_exact(P, thetas, PIN_SIGMAS)
            k = P.n_vertices
            assert grid.total.shape == grid.interior.shape == (len(thetas), len(PIN_SIGMAS))
            assert grid.strips.shape == (len(thetas), len(PIN_SIGMAS), k if k > 1 else 0)
            assert grid.vertices.shape == (len(thetas), len(PIN_SIGMAS), k)
            for i, sigma in enumerate(PIN_SIGMAS):
                one = risk_polygon_exact(P, thetas, float(sigma))
                for column, scalar in zip(
                    (grid.interior, grid.strips, grid.vertices, grid.total),
                    (one.interior, one.strips, one.vertices, one.total),
                ):
                    assert column[:, i].tobytes() == scalar.tobytes(), (k, sigma)
            single = risk_polygon_exact(P, thetas[0], PIN_SIGMAS)
            assert single.total.tobytes() == grid.total[0].tobytes()
            assert single.strips.tobytes() == grid.strips[0].tobytes()

    def test_point_polytope(self):
        got = risk_polygon_exact(ConvexPolytope([[0.5, -1.0]]), (0.5, -1.0), 2.0)
        assert (got.total, got.interior, got.strips.shape, got.vertices.tolist()) == (0.0, 0.0, (0,), [0.0])

    def test_refusals(self):
        triangle = ExampleGeometry(c=1.0).triangle()
        with pytest.raises(ValueError, match="planar"):
            risk_polygon_exact(ConvexPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), (0.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="must belong to the polytope"):
            risk_polygon_exact(triangle, (2.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="sigma must be a positive finite real"):
            risk_polygon_exact(triangle, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match=r"^sigma must be a positive finite real, got -2\.0$"):
            risk_polygon_exact(triangle, (0.0, 0.0), [1.0, -2.0])


def _batch_corpus():
    """{K: [(P, thetas), ...]} for K = 1 to 8: the pin corpus, more points, and segments with theta* at
    both ends, the midpoint and a point 0.3 along."""
    corpus = _pin_corpus()
    corpus[1] += [(ConvexPolytope([point]), np.array([point])) for point in ([0.0, 0.0], [-3.0, 2.5])]
    rng = np.random.default_rng(20261021)
    corpus[2] = []
    for _ in range(3):
        P = ConvexPolytope(rng.normal(size=(2, 2)))
        v0, v1 = P.vertices
        corpus[2].append((P, np.array([v0, v1, 0.5 * (v0 + v1), 0.7 * v0 + 0.3 * v1])))
    return dict(sorted(corpus.items()))


class TestBatchedPolytopes:
    """Polytopes of one K stacked into one kernel call keep the bits of their own calls."""

    @pytest.mark.parametrize("sigmas", [PIN_SIGMAS, SIGMA_SWEEP], ids=["pin", "sweep"])
    def test_rows_are_each_polytopes_own_call(self, sigmas):
        # against PIN_SIGMAS each own call is a scalar one, whose sums over K
        # run on one contiguous row whatever the layout: from K = 8 on they
        # are numpy's pairwise sums, which a strided sum over K would reorder.
        # SIGMA_SWEEP splits K = 8's 81 stacked rows into three blocks of
        # noise levels, and each polytope's own call into one
        scalar = len(sigmas) == len(PIN_SIGMAS)
        for k, cases in _batch_corpus().items():
            v = np.concatenate([np.broadcast_to(P.vertices, (len(thetas), k, 2)) for P, thetas in cases])
            theta = np.concatenate([thetas for _, thetas in cases])
            stacked = exact_risk._pieces(v, theta, sigmas)
            for got, name in zip(stacked, ("interior", "strips", "vertices", "total")):
                if scalar:
                    want = np.concatenate([
                        np.stack([getattr(risk_polygon_exact(P, thetas, float(s)), name) for s in sigmas], axis=1)
                        for P, thetas in cases
                    ])
                else:
                    want = np.concatenate([getattr(risk_polygon_exact(P, thetas, sigmas), name) for P, thetas in cases])
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, name)


class TestExtremeSigma:
    """Every sigma the input check accepts is either right with no warning or refused naming it."""

    @pytest.mark.parametrize("where", ["vertex", "centroid"])
    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e150, 1e160, 1e300])
    def test_right_or_refused(self, sigma, where):
        P = ExampleGeometry(c=0.5).triangle()
        theta = P.vertices[0] if where == "vertex" else P.vertices.mean(axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1]:
                # 1/sigma of the far-noise limit is far below an ulp of it
                want = limiting_risk(P, theta, vertex_probabilities_2d(P))
                assert risk_polygon_exact(P, theta, sigma).total == pytest.approx(want, rel=1e-15, abs=0.0)
            else:
                named = rf"^sigma {re.escape(repr(sigma))} is outside the exact engine's range"
                with pytest.raises(ValueError, match=named):
                    risk_polygon_exact(P, theta, sigma)
                with pytest.raises(ValueError, match=named):
                    risk_triangle_exact(ExampleGeometry(c=0.5), [1.0, sigma])

    def test_ends_of_the_range(self):
        # at the ends the risk is sigma^2 delta and the noise limit; a polytope of
        # diameter 1e10 takes (h / sigma)^2 past the largest float at the low end
        low, high = SIGMA_RANGE
        assert low * low == np.finfo(float).tiny and math.isfinite(2.0 * high * high)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 1e10):
                P = ConvexPolytope(scale * ExampleGeometry(c=0.5).triangle().vertices)
                centroid = P.vertices.mean(axis=0)
                assert risk_polygon_exact(P, centroid, low).total == pytest.approx(2.0 * low * low, rel=1e-15)
                want = limiting_risk(P, centroid, vertex_probabilities_2d(P))
                assert risk_polygon_exact(P, centroid, high).total == pytest.approx(want, rel=1e-15, abs=0.0)
            for sigma in (np.nextafter(low, 0.0), np.nextafter(high, np.inf)):
                with pytest.raises(ValueError, match="outside the exact engine's range"):
                    risk_polygon_exact(P, centroid, sigma)


def _fan_series_every_term(q, qx1, qx2, s1, s2):
    """The fan series summed to all ``_SERIES_TERMS`` terms on every row, with no early exit."""
    j1, j2 = qx1, qx2
    p1 = p2 = 1.0
    total = np.zeros(np.shape(q))
    factorial = 1.0
    for m in range(2, _SERIES_TERMS + 2):
        p1, p2 = p1 * s1, p2 * s2
        j1 = (qx1 * p1 + 2.0 * (m - 1) * q * j1) / (2 * m - 1)
        j2 = (qx2 * p2 + 2.0 * (m - 1) * q * j2) / (2 * m - 1)
        factorial *= max(m - 2, 1)
        term = (j2 - j1) / (factorial * m)
        total = total + term if m % 2 == 0 else total - term
    return total / (2.0 * math.pi)


class TestFanSeries:
    def test_early_exit_keeps_the_bits_of_every_term(self):
        # random fan triangles (theta* = 0, v_i, v_j) at sigma = 1, each vertex
        # within sqrt(2 _SERIES_S) of theta*, at distances spread over ten decades
        rng = np.random.default_rng(20261020)
        n = 150_000
        radius = math.sqrt(2.0 * _SERIES_S) * 10.0 ** rng.uniform(-10.0, 0.0, (2, n))
        radius[:, :1000] = math.sqrt(2.0 * _SERIES_S)
        angle = rng.uniform(0.0, 2.0 * math.pi, (2, n))
        angle[1, 1000:2000] = angle[0, 1000:2000] + math.pi  # theta* on the edge line
        v = radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        t = (v[1] - v[0]) / np.hypot(*(v[1] - v[0]).T)[:, None]
        a = np.einsum("nd,nd->n", v[0], np.stack([t[:, 1], -t[:, 0]], axis=1))
        # order each edge so that theta* lies on its inner side
        flip = a < 0.0
        v[:, flip] = v[::-1, flip]
        t[flip], a[flip] = -t[flip], -a[flip]
        tau, tau_end = -np.einsum("nd,nd->n", v[0], t), -np.einsum("nd,nd->n", v[1], t)
        s1, s2 = np.einsum("knd,knd->kn", v, v) / 2.0
        args = (a * a / 2.0, -a * tau / 2.0, -a * tau_end / 2.0, s1, s2)
        assert _fan_series(*args).tobytes() == _fan_series_every_term(*args).tobytes()


def _normal_mass_every_form(a, b):
    """:func:`_normal_mass` as it was: all three forms on every entry, then a pick."""
    upper = std_normal_cdf(-a) - std_normal_cdf(-b)
    lower = std_normal_cdf(b) - std_normal_cdf(a)
    middle = std_normal_cdf_minus_half(b) - std_normal_cdf_minus_half(a)
    return np.where(a >= 1.0, upper, np.where(b <= -1.0, lower, middle))


def _owens_t_every_entry(h, a):
    """:func:`owens_t` as it was: scipy on every entry, the limit at a = +/-inf picked afterwards."""
    limit = np.copysign(0.5 * special.ndtr(-np.abs(h)), a)
    return np.where(np.isinf(a), limit, special.owens_t(h, a))


def _tail_every_form(x, b):
    """:func:`_tail` as it was: the near and the far form on every entry, then a pick."""
    far = (b > 1.0) & np.isfinite(b)
    b_far = np.where(far, b, 1.0)
    bx = np.where(far, b_far * x, 0.0)
    near = 0.5 * std_normal_cdf(-x) - _owens_t_every_entry(x, np.where(far, 0.0, b))
    return np.where(
        far, _owens_t_every_entry(bx, 1.0 / b_far) - std_normal_cdf(-bx) * std_normal_cdf_minus_half(x), near
    )


class TestOneFormPerEntry:
    """Each entry evaluates only the form it takes, and keeps the bits of evaluating every form."""

    @staticmethod
    def _values(rng, n):
        specials = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 1e-300, 38.0, -40.0]
        return np.concatenate([specials, rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 1.5, n)])

    def test_normal_mass(self):
        rng = np.random.default_rng(11)
        a, b = np.sort(np.stack([self._values(rng, 20_000), self._values(rng, 20_000)]), axis=0)
        b[:9] = a[:9]  # empty intervals at the special values
        assert _normal_mass(a, b).tobytes() == _normal_mass_every_form(a, b).tobytes()
        # a (G, 1) column against (G, S) rows
        assert _normal_mass(a[:40, None], b[None, :50] + 1.0).tobytes() == _normal_mass_every_form(
            a[:40, None], b[None, :50] + 1.0
        ).tobytes()

    def test_tail(self):
        rng = np.random.default_rng(12)
        x = np.abs(self._values(rng, 20_000))
        b = self._values(rng, 20_000) * rng.choice([1.0, 50.0], x.size)
        b[::7] = 0.0
        b[1::7] = np.inf
        b[2::7] = -np.inf
        x[3::11] = 0.0
        assert _tail(x, b).tobytes() == _tail_every_form(x, b).tobytes()
        assert _tail(x[:30, None], b[None, :70]).tobytes() == _tail_every_form(x[:30, None], b[None, :70]).tobytes()
