"""Closed-form risks of the projection estimator for the running example.

In the model Y = theta* + sigma * Z with Z standard normal in the plane, the
estimator is the Euclidean projection of Y onto a constraint set.  For the
segment conv{v1, v2} and the triangle conv{v1, v2, v3} the risk
E||thetahat - theta*||^2 admits exact expressions in Phi and Owen's T; this
module evaluates them in numerically stable form, exposes the triangle risk
as a sum of per-region contributions, and provides the two noise-limit
coefficients of the segment/triangle risk difference.  Each risk takes a
scalar sigma, giving floats, or an array of them, giving arrays entry by
entry equal to the scalar calls: a whole sigma grid is one call.  Passing a
sequence of geometries instead of one adds a leading slope axis, so a whole
(c, sigma) grid is one call too, row by row equal to the one-geometry calls.
"""

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gaussfn import (
    _result,
    owens_t,
    std_normal_cdf,
    std_normal_cdf_minus_half,
    std_normal_pdf,
)
from .geometry import ExampleGeometry, RegionLabel, _points, _real, _real_array

# |total - sum of region contributions| must stay below this
BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class RiskQuery:
    """One risk evaluation point: true parameter and noise level."""

    theta_star: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        (theta,) = _points([self.theta_star])
        object.__setattr__(self, "theta_star", tuple(theta.tolist()))
        object.__setattr__(self, "sigma", _sigma(self.sigma))

    @property
    def theta(self) -> np.ndarray:
        return np.array(self.theta_star)


@dataclass(frozen=True)
class RegionRiskBreakdown:
    """Triangle risk split over the seven projector regions.

    ``total`` is the full risk; ``regions`` maps each :class:`RegionLabel`
    to its contribution E[||thetahat - theta*||^2 ; Y in region], a float or
    an array over sigma, validated as a whole: the contributions are
    nonnegative (up to roundoff) and sum to the total within ``BREAKDOWN_TOL``.
    """

    regions: Mapping[RegionLabel, float | np.ndarray]
    total: float | np.ndarray

    def __post_init__(self):
        regions = dict(self.regions)
        if set(regions) != set(RegionLabel):
            raise ValueError("breakdown must cover all seven regions")
        for label, value in regions.items():
            bad = np.asarray(value)[~np.isfinite(value) | (value < -BREAKDOWN_TOL)]
            if bad.size:
                raise ValueError(f"region {label.value} contribution {float(bad[0])!r} is invalid")
        if np.any(abs(sum(regions.values()) - self.total) > BREAKDOWN_TOL * np.maximum(1.0, abs(self.total))):
            raise ValueError("total does not match the sum of region contributions")
        object.__setattr__(self, "regions", regions)

    def __getitem__(self, label: RegionLabel) -> float | np.ndarray:
        return self.regions[label]


def _sigmas(sigma) -> np.ndarray:
    """``sigma`` as a float array; raises naming its first non-positive or non-finite entry.

    A value that is not an array of real numbers (a bool, None, a string) is
    named as given.
    """
    try:
        sigma = _real_array(sigma, "sigma")
    except ValueError:
        raise ValueError(f"sigma must be a positive finite real, got {sigma!r}") from None
    bad = sigma[~(np.isfinite(sigma) & (sigma > 0.0))]
    if bad.size:
        raise ValueError(f"sigma must be a positive finite real, got {float(bad[0])!r}")
    return sigma


def _sigma(sigma) -> float:
    """``sigma`` as a float, if it is one positive finite real; else ValueError naming sigma."""
    sigma = _sigmas(sigma)
    if sigma.ndim:
        raise ValueError(f"sigma must be a scalar, got shape {sigma.shape}")
    return float(sigma)


def _int_z2_phi(a, b):
    """integral_a^b z^2 phi(z) dz elementwise; for a <= 0 <= b the two halves from 0 add."""
    return _half_z2_phi(b) - _half_z2_phi(a)


def _half_z2_phi(x):
    """integral_0^x z^2 phi(z) dz = sign(x) P(3/2, x^2/2) / 2, to a few ulps for every x.

    Below |x| = 1, where Phi(x) - 1/2 - x phi(x) cancels, it sums the positive
    series of P: phi(x) (|x|^3/3 + |x|^5/(3*5) + |x|^7/(3*5*7) + ...).
    """
    r = np.abs(x)
    rs = np.minimum(r, 1.0)
    term = total = rs * rs * rs / 3.0
    k = 5.0
    # a converged sum ignores terms below 1e-17 of it while other entries go on
    while (term > 1e-17 * total).any():
        term = term * (rs * rs / k)
        total = total + term
        k += 2.0
    pdf = std_normal_pdf(r)
    return np.copysign(np.where(r < 1.0, total * pdf, std_normal_cdf_minus_half(r) - r * pdf), x)


def _slopes(g, sigma: np.ndarray):
    """c, alpha_c, sqrt(alpha_c) and arctan(1/c)/pi of ``g``, each computed with math.

    One geometry gives floats.  A sequence of m geometries gives arrays of
    shape (m, 1, ..., 1) that broadcast against ``sigma``, one row per slope.
    """
    if isinstance(g, ExampleGeometry):
        return g.c, g.alpha_c, math.sqrt(g.alpha_c), math.atan(1.0 / g.c) / math.pi
    table = np.array([_slopes(e, sigma) for e in g], dtype=float).reshape(-1, 4)
    return tuple(table.T.reshape((4, -1) + (1,) * sigma.ndim))


def risk_segment_exact(g, t_star: float, sigma):
    """Exact risk of projection onto the segment conv{v1, v2}.

    The true parameter is theta* = t_star * v2 with t_star in [0, 1].  With
    a = -sqrt(alpha_c) t*/sigma and b = sqrt(alpha_c)(1 - t*)/sigma the risk is

        alpha_c [ t*^2 Phi(a) + (sigma^2/alpha_c) integral_a^b z^2 phi(z) dz
                  + (1 - t*)^2 Phi(-b) ].

    ``g`` is an :class:`ExampleGeometry` or a sequence of them; a sequence
    gives one row per geometry, each equal to its own call bit for bit.
    """
    given, t_star = t_star, _real(t_star)
    if not (math.isfinite(t_star) and 0.0 <= t_star <= 1.0):
        raise ValueError(f"t_star must lie in [0, 1], got {given!r}")
    sigma = _sigmas(sigma)
    _, alpha, root, _ = _slopes(g, sigma)
    a = -root * t_star / sigma
    b = root * (1.0 - t_star) / sigma
    return _result(alpha * (
        t_star * t_star * std_normal_cdf(a)
        + (sigma * sigma / alpha) * _int_z2_phi(a, b)
        + (1.0 - t_star) ** 2 * std_normal_cdf(-b)
    ))


def risk_triangle_exact(g, sigma) -> RegionRiskBreakdown:
    """Exact risk of projection onto the triangle conv{v1, v2, v3} at theta* = v1.

    Each of the seven projector regions contributes in closed form.  Writing
    x = 1/(c sigma), s = sqrt(alpha_c)/sigma, and u = 1/sigma:

        Interior: sigma^2 [ u phi(u) (1/2 - Phi(x)) - 2 T(u, 1/c)
                            + arctan(1/c)/pi ]
        A1:       0
        A2:       alpha_c [ Phi(-s) Phi(-x) + T(x, c sqrt(alpha_c))
                            + T(s, 1/(c sqrt(alpha_c))) - T(x, c) ]
        A3:       Phi(-u) / 2
        A12:      (sigma^2/2) integral_0^s z^2 phi(z) dz
        A13:      (sigma^2/2) integral_0^u z^2 phi(z) dz
        A23:      Phi(-u) [ (Phi(x) - 1/2) + sigma^2 integral_0^x z^2 phi(z) dz ]

    ``g`` is an :class:`ExampleGeometry` or a sequence of them; a sequence
    gives every region one row per geometry, each equal to its own call bit
    for bit, and the four Owen's T evaluations cover the whole grid.
    """
    sigma = _sigmas(sigma)
    c, alpha, root, arc = _slopes(g, sigma)
    u = 1.0 / sigma
    x = 1.0 / (c * sigma)
    s = root / sigma
    sig2 = sigma * sigma

    interior = sig2 * (
        u * std_normal_pdf(u) * (-std_normal_cdf_minus_half(x))
        - 2.0 * owens_t(u, 1.0 / c)
        + arc
    )
    # the bracket above cancels to O(sigma^-4) as sigma grows, so the sigma^2
    # prefactor amplifies machine roundoff; clamp negatives inside that
    # roundoff envelope to zero instead of reporting them as contributions
    roundoff = 32.0 * np.finfo(float).eps * np.maximum(1.0, sig2)
    interior = np.where((-roundoff <= interior) & (interior < 0.0), 0.0, interior)
    a2 = alpha * (
        std_normal_cdf(-s) * std_normal_cdf(-x)
        + owens_t(x, c * root)
        + owens_t(s, 1.0 / (c * root))
        - owens_t(x, c)
    )
    a3 = 0.5 * std_normal_cdf(-u)
    a12 = 0.5 * sig2 * _half_z2_phi(s)
    a13 = 0.5 * sig2 * _half_z2_phi(u)
    a23 = std_normal_cdf(-u) * (
        std_normal_cdf_minus_half(x) + sig2 * _half_z2_phi(x)
    )

    # in RegionLabel order: Interior, A1, A2, A3, A12, A13, A23; A3 and A13
    # depend on sigma only and are spread over the slope axis
    shape = np.shape(interior)
    values = (interior, np.zeros(shape), a2, np.full(shape, a3), a12, np.full(shape, a13), a23)
    regions = {label: _result(value) for label, value in zip(RegionLabel, values)}
    return RegionRiskBreakdown(regions=regions, total=sum(regions.values()))


def risk_difference(g, sigma):
    """Segment risk minus triangle risk at theta* = v1, for one geometry or a sequence.

    Negative means the smaller set wins (expected for small noise);
    positive is a risk reversal.
    """
    return risk_segment_exact(g, 0.0, sigma) - risk_triangle_exact(g, sigma).total


def small_noise_diff_coeff(c: float) -> float:
    """sigma^2 coefficient of the risk difference as sigma -> 0: -arctan(1/c)/pi."""
    c = ExampleGeometry(c=c).c
    return -math.atan(1.0 / c) / math.pi


def large_noise_limit_diff(c: float) -> float:
    """Limit of the risk difference as sigma -> infinity.

    g(c) = 1/(4 c^2) - ((1 + c^2)/(2 pi c^2)) arctan(1/c); positive exactly
    when 0 < c < 1 (reversal in the noise limit), zero at c = 1.
    """
    c = ExampleGeometry(c=c).c
    c2 = c * c
    return 0.25 / c2 - (1.0 + c2) / (2.0 * math.pi * c2) * math.atan(1.0 / c)
