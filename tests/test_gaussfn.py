"""Tests for the Gaussian special-function layer.

Every closed form is checked against direct numerical quadrature of its
defining integral on seeded random sweeps, so the identities never rest
on the implementation they are meant to certify.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from riskrev.gaussfn import (
    QUADRATURE_TOL,
    int_phi_cdf,
    int_phi_cdf_linear,
    int_z_phi_phi,
    owens_t,
    std_normal_cdf,
    std_normal_cdf_minus_half,
    std_normal_pdf,
)

RNG_SEED = 172801


def _owens_t_quad(h, a):
    """Defining integral T(h, a) = phi(h-ish) ... integrated numerically."""
    val, err = quad(
        lambda z: math.exp(-0.5 * h * h * (1.0 + z * z)) / (1.0 + z * z),
        0.0,
        a,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val / (2.0 * math.pi), err


class TestBasics:
    def test_pdf_cdf_values(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert std_normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)

    def test_cdf_minus_half_matches_cdf(self):
        rng = np.random.default_rng(RNG_SEED)
        for x in rng.uniform(-6.0, 6.0, size=500):
            assert std_normal_cdf_minus_half(x) == pytest.approx(
                std_normal_cdf(x) - 0.5, abs=1e-15
            )

    def test_cdf_minus_half_is_accurate_near_zero(self):
        # naive subtraction loses digits here; the erf form must not
        x = 1e-12
        assert std_normal_cdf_minus_half(x) == pytest.approx(
            x / math.sqrt(2.0 * math.pi), rel=1e-12
        )


class TestOwensT:
    def test_zero_slope(self):
        for h in (-3.0, -0.5, 0.0, 0.2, 7.0):
            assert owens_t(h, 0.0) == 0.0

    def test_zero_height(self):
        for a in (-5.0, -1.0, 0.3, 2.0, 40.0):
            assert owens_t(0.0, a) == pytest.approx(math.atan(a) / (2.0 * math.pi), abs=1e-15)

    def test_infinite_slope(self):
        for h in (-2.0, -0.7, 0.0, 1.3, 4.0):
            expect = 0.5 * std_normal_cdf(-abs(h))
            assert owens_t(h, math.inf) == pytest.approx(expect, abs=1e-15)
            assert owens_t(h, -math.inf) == pytest.approx(-expect, abs=1e-15)

    def test_odd_in_a_even_in_h(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for h, a in rng.uniform(-4.0, 4.0, size=(300, 2)):
            assert owens_t(h, -a) == pytest.approx(-owens_t(h, a), abs=1e-15)
            assert owens_t(-h, a) == pytest.approx(owens_t(h, a), abs=1e-15)

    def test_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        hs = rng.uniform(-3.0, 3.0, size=250)
        slopes = rng.uniform(-8.0, 8.0, size=250)
        for h, a in zip(hs, slopes):
            want, err = _owens_t_quad(h, a)
            assert owens_t(h, a) == pytest.approx(want, abs=max(QUADRATURE_TOL, 10 * abs(err)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            owens_t(math.nan, 1.0)
        with pytest.raises(ValueError):
            owens_t(1.0, math.nan)

    def test_each_entry_keeps_the_bits_of_scipy_and_the_limit_everywhere(self):
        # the limit is taken only where a is infinite and T(h, 0) = +0 without
        # scipy; scipy on every entry, with the limit picked after, gives the same bits
        rng = np.random.default_rng(RNG_SEED + 3)
        n = 30_000
        h = np.concatenate([[0.0, -0.0, 0.0, 3.0, -3.0], rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1.5, n)])
        a = np.concatenate([[0.0, math.inf, -math.inf, -0.0, 0.0], rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)])
        a[5::9], a[6::9], a[7::9], a[8::9] = 0.0, -0.0, math.inf, -math.inf
        h[9::13] = 0.0
        every_entry = np.where(np.isinf(a), np.copysign(0.5 * special.ndtr(-np.abs(h)), a), special.owens_t(h, a))
        assert owens_t(h, a).tobytes() == every_entry.tobytes()
        finite = np.isfinite(a) & (a != 0.0)
        assert owens_t(h[finite], a[finite]).tobytes() == special.owens_t(h[finite], a[finite]).tobytes()
        assert owens_t(h[:50, None], a[None, :80]).tobytes() == np.where(
            np.isinf(a[:80]), np.copysign(0.5 * special.ndtr(-np.abs(h[:50, None])), a[:80]),
            special.owens_t(h[:50, None], a[:80]),
        ).tobytes()


class TestArrayArguments:
    """Arrays go through in one call, entry by entry equal to scalar calls."""

    X = np.concatenate([-np.geomspace(1e-8, 40.0, 60), [0.0, -0.0], np.geomspace(1e-8, 40.0, 60)])

    @pytest.mark.parametrize("fn", [std_normal_pdf, std_normal_cdf, std_normal_cdf_minus_half])
    def test_one_argument_functions(self, fn):
        got = fn(self.X)
        assert isinstance(got, np.ndarray) and got.shape == self.X.shape
        for x, value in zip(self.X, got):
            scalar = fn(float(x))
            assert type(scalar) is float
            assert np.float64(scalar).tobytes() == value.tobytes()

    def test_owens_t_broadcasts(self):
        slopes = np.array([-math.inf, -3.0, -0.4, 0.0, 0.4, 3.0, 40.0, math.inf])
        got = owens_t(self.X[:, None], slopes)
        assert got.shape == (len(self.X), len(slopes))
        for i, h in enumerate(self.X):
            for j, a in enumerate(slopes):
                scalar = owens_t(float(h), float(a))
                assert type(scalar) is float
                assert np.float64(scalar).tobytes() == got[i, j].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_bad_entry_raises_like_a_scalar(self, bad):
        values = np.array([0.1, 0.2, bad, 0.3])
        for fn in (std_normal_pdf, std_normal_cdf, std_normal_cdf_minus_half):
            with pytest.raises(ValueError, match=rf"^x must be finite, got {bad!r}$"):
                fn(values)
            with pytest.raises(ValueError, match=rf"^x must be finite, got {bad!r}$"):
                fn(bad)
        with pytest.raises(ValueError, match=rf"^h must be finite, got {bad!r}$"):
            owens_t(values, 1.0)
        with pytest.raises(ValueError, match="^a must not be NaN$"):
            owens_t(0.5, np.array([1.0, math.nan]))


class TestIntPhiCdf:
    """The truncated integral of phi(z) Phi(a + b z)."""

    def test_zero_upper_limit(self):
        assert int_phi_cdf(0.0, 1.3, -0.4) == 0.0

    def test_negative_upper_limit_rejected(self):
        with pytest.raises(ValueError):
            int_phi_cdf(-0.5, 0.0, 1.0)

    def test_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(400):
            m = rng.uniform(0.05, 6.0)
            a = rng.uniform(-5.0, 5.0)
            b = rng.uniform(-5.0, 5.0)
            want, err = quad(
                lambda z: std_normal_pdf(z) * std_normal_cdf(a + b * z),
                0.0,
                m,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            got = int_phi_cdf(m, a, b)
            assert got == pytest.approx(want, abs=max(QUADRATURE_TOL, 10 * abs(err)))

    def test_zero_intercept_matches_linear_form(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(300):
            m = rng.uniform(0.05, 6.0)
            b = rng.uniform(-6.0, 6.0)
            assert int_phi_cdf(m, 0.0, b) == pytest.approx(
                int_phi_cdf_linear(m, b), abs=1e-10
            )

    def test_small_intercept_continuity(self):
        # approaching a = 0 must agree with the dedicated a = 0 branch
        for a in (1e-9, -1e-9, 1e-12):
            assert int_phi_cdf(1.7, a, 0.8) == pytest.approx(
                int_phi_cdf(1.7, 0.0, 0.8), abs=1e-9
            )


class TestIntPhiCdfLinear:
    def test_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(300):
            m = rng.uniform(0.05, 6.0)
            b = rng.uniform(-6.0, 6.0)
            want, _ = quad(
                lambda z: std_normal_pdf(z) * std_normal_cdf(b * z),
                0.0,
                m,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert int_phi_cdf_linear(m, b) == pytest.approx(want, abs=QUADRATURE_TOL)

    def test_zero_slope_halves_the_mass(self):
        # Phi(0) = 1/2 turns the integrand into phi(z)/2
        for m in (0.3, 1.0, 2.5):
            expect = 0.5 * (std_normal_cdf(m) - 0.5)
            assert int_phi_cdf_linear(m, 0.0) == pytest.approx(expect, abs=1e-14)


class TestIntZPhiPhi:
    def test_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        for _ in range(400):
            m = rng.uniform(0.05, 6.0)
            a = rng.uniform(-4.0, 4.0)
            b = rng.uniform(-4.0, 4.0)
            want, err = quad(
                lambda z: z * std_normal_pdf(z) * std_normal_pdf(a + b * z),
                0.0,
                m,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            got = int_z_phi_phi(m, a, b)
            assert got == pytest.approx(want, abs=max(QUADRATURE_TOL, 10 * abs(err)))

    def test_zero_upper_limit(self):
        assert int_z_phi_phi(0.0, 0.7, -1.2) == 0.0

    def test_large_upper_limit_converges(self):
        # the m -> inf value should be stable in m once the tails are gone
        a, b = 0.9, -1.4
        assert int_z_phi_phi(30.0, a, b) == pytest.approx(
            int_z_phi_phi(12.0, a, b), abs=1e-14
        )
