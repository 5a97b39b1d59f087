"""Closed-form risks of the projection estimator for the running example.

In the model Y = theta* + sigma * Z with Z standard normal in the plane, the
estimator is the Euclidean projection of Y onto a constraint set.  For the
segment conv{v1, v2} and the triangle conv{v1, v2, v3} the risk
E||thetahat - theta*||^2 admits exact expressions in Phi and Owen's T; this
module evaluates them in numerically stable form, splits the triangle risk
into the pieces of :class:`PolygonRisk`, and provides the two noise-limit
coefficients of the segment/triangle risk difference.  Each of those risks
takes a scalar sigma, giving floats, or an array of them, giving arrays
entry by entry equal to the scalar calls: a whole sigma grid is one call.
Passing a sequence of geometries instead of one adds a leading slope axis,
so a whole (c, sigma) grid is one call too, row by row equal to the
one-geometry calls.

:func:`risk_polygon_exact` covers every planar polytope (a point, a segment
or a convex polygon) at any theta* in it, one sigma and many theta* per
call, piece by piece in Phi, phi and Owen's T; the triangle shares its
interior code.  The risks refuse a total outside [0, squared diameter].
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussfn import (
    _result,
    owens_t,
    std_normal_cdf,
    std_normal_cdf_minus_half,
    std_normal_pdf,
)
from .geometry import (
    ConvexPolytope,
    ExampleGeometry,
    _edge_chain,
    _member_points,
    _points,
    _real,
    _real_array,
)


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
class PolygonRisk:
    """Risk of projecting onto a planar polytope, split over the projector's pieces.

    The polytope's edges are the closed chain v_k -> v_(k+1) of its
    counterclockwise vertices; a segment is the chain v_0 -> v_1 -> v_0, and
    a point has no edge.  ``strips[..., k]`` is the contribution of the
    half-strip outside edge k, ``vertices[..., j]`` that of vertex j's normal
    cone, and ``interior`` that of the polytope itself.  Each is a float, or
    an array over leading theta* (or slope and sigma) axes; ``total`` is
    their sum.
    """

    interior: float | np.ndarray
    strips: np.ndarray
    vertices: np.ndarray
    total: float | np.ndarray


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
    r = np.abs(np.asarray(x, dtype=float))
    pdf = np.asarray(std_normal_pdf(r))
    half = np.empty_like(r)
    small = r < 1.0
    big = ~small
    half[big] = std_normal_cdf_minus_half(r[big]) - r[big] * pdf[big]
    rs = r[small]
    r2 = rs * rs
    term = r2 * rs / 3.0
    total = term.copy()
    k = 5.0
    # a converged sum ignores the smaller terms it adds while other entries go on
    while (term > 1e-17 * total).any():
        term *= r2 / k
        total += term
        k += 2.0
    half[small] = total * pdf[small]
    return np.copysign(half, x)


def _slopes(g, sigma: np.ndarray):
    """c, alpha_c and sqrt(alpha_c) of ``g``, each computed with math.

    One geometry gives floats.  A sequence of m geometries gives arrays of
    shape (m, 1, ..., 1) that broadcast against ``sigma``, one row per slope.
    """
    if isinstance(g, ExampleGeometry):
        return g.c, g.alpha_c, math.sqrt(g.alpha_c)
    table = np.array([_slopes(e, sigma) for e in g], dtype=float).reshape(-1, 3)
    return tuple(table.T.reshape((3, -1) + (1,) * sigma.ndim))


def _check_range(name, total, diameter_sq, at):
    """Raise ``FloatingPointError`` unless each entry of ``total`` lies in [0, diameter_sq (1 + 1e-9)].

    theta* lies in the set, so no loss exceeds its squared diameter.  NaN
    and inf fail, and so does a piece that is not finite, as the total is
    the sum of the pieces.  The error names the first entry that fails by
    its values in ``at``, each broadcast against ``total`` (theta* keeps
    its coordinate axis).
    """
    bad = ~((total >= 0.0) & (total <= diameter_sq * (1.0 + 1e-9)))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        value, diameter_sq, *inputs = (
            np.broadcast_to(x, bad.shape + np.shape(x)[bad.ndim:])[i].tolist()
            for x in (total, diameter_sq, *at.values())
        )
        place = ", ".join(f"{key} {x!r}" for key, x in zip(at, inputs))
        raise FloatingPointError(
            f"{name} at {place} is {value!r}, not a finite value in [0, {diameter_sq!r}], the squared diameter"
        )


def risk_segment_exact(g, t_star: float, sigma):
    """Exact risk of projection onto the segment conv{v1, v2}.

    The true parameter is theta* = t_star * v2 with t_star in [0, 1].  With
    a = -sqrt(alpha_c) t*/sigma and b = sqrt(alpha_c)(1 - t*)/sigma the risk is

        alpha_c [ t*^2 Phi(a) + (sigma^2/alpha_c) integral_a^b z^2 phi(z) dz
                  + (1 - t*)^2 Phi(-b) ].

    ``g`` is an :class:`ExampleGeometry` or a sequence of them; a sequence
    gives one row per geometry, each equal to its own call bit for bit.
    Raises ``FloatingPointError`` naming the first (c, sigma) whose risk is
    not in [0, alpha_c].
    """
    given, t_star = t_star, _real(t_star)
    if not (math.isfinite(t_star) and 0.0 <= t_star <= 1.0):
        raise ValueError(f"t_star must lie in [0, 1], got {given!r}")
    sigma = _sigmas(sigma)
    c, alpha, root = _slopes(g, sigma)
    a = -root * t_star / sigma
    b = root * (1.0 - t_star) / sigma
    total = alpha * (
        t_star * t_star * std_normal_cdf(a)
        + (sigma * sigma / alpha) * _int_z2_phi(a, b)
        + (1.0 - t_star) ** 2 * std_normal_cdf(-b)
    )
    _check_range("segment risk", total, alpha, {"c": c, "sigma": sigma})
    return _result(total)


def risk_triangle_exact(g, sigma) -> PolygonRisk:
    """Exact risk of projection onto the triangle conv{v1, v2, v3} at theta* = v1, piece by piece.

    The pieces are those of :func:`risk_polygon_exact` on ``g.triangle()``:
    strips outside edges v1v2, v2v3, v3v1 and the cones of v1, v2, v3, the
    piece index last.  With x = 1/(c sigma), s = sqrt(alpha_c)/sigma and
    u = 1/sigma:

        strips:    (sigma^2/2) integral_0^s z^2 phi(z) dz,
                   Phi(-u) [ (Phi(x) - 1/2) + sigma^2 integral_0^x z^2 phi(z) dz ],
                   (sigma^2/2) integral_0^u z^2 phi(z) dz
        vertices:  0,  alpha_c [ Phi(-s) Phi(-x) + T(x, c sqrt(alpha_c))
                                 + T(s, 1/(c sqrt(alpha_c))) - T(x, c) ],  Phi(-u)/2

    The interior is the engine's one fan triangle (v1, v2, v3):
    sigma^2 [ arctan(1/c)/pi - 2 T(u, 1/c) - u phi(u) (Phi(x) - 1/2) ],
    or its series once sigma is large against the triangle.

    ``g`` is an :class:`ExampleGeometry` or a sequence of them; a sequence
    adds a leading slope axis to every piece, each row equal to its own call
    bit for bit, and the five Owen's T evaluations cover the whole grid.
    Raises ``FloatingPointError`` naming the first (c, sigma) whose risk is
    not in [0, alpha_c].
    """
    sigma = _sigmas(sigma)
    c, alpha, root = _slopes(g, sigma)
    u = 1.0 / sigma
    x = 1.0 / (c * sigma)
    s = root / sigma
    sig2 = sigma * sigma
    two_sig2 = 2.0 * sig2
    tail_u = std_normal_cdf(-u)

    # the edge v2 -> v3 seen from v1: a = 1, tau = 1/c, tau_end = 0, length
    # 1/c and (v1 - v2).(v1 - v3) = 1; v1's own two edges have no area
    interior = two_sig2 * _fan_bracket(1.0, 1.0 / c, 0.0, 1.0 / c, 1.0, alpha / two_sig2, 1.0 / two_sig2, sigma)
    a2 = alpha * (
        std_normal_cdf(-s) * std_normal_cdf(-x)
        + owens_t(x, c * root)
        + owens_t(s, 1.0 / (c * root))
        - owens_t(x, c)
    )
    a12 = 0.5 * sig2 * _half_z2_phi(s)
    a23 = tail_u * (std_normal_cdf_minus_half(x) + sig2 * _half_z2_phi(x))
    a13 = 0.5 * sig2 * _half_z2_phi(u)
    # pieces that depend on sigma only are spread over the slope axis
    strips = np.stack(np.broadcast_arrays(a12, a23, a13), axis=-1)
    vertices = np.stack(np.broadcast_arrays(0.0, a2, 0.5 * tail_u), axis=-1)
    total = interior + strips.sum(axis=-1) + vertices.sum(axis=-1)
    _check_range("triangle risk", total, alpha, {"c": c, "sigma": sigma})
    return PolygonRisk(_result(interior), strips, vertices, _result(total))


def _normal_mass(a, b):
    """P(a <= Z <= b) elementwise, for a <= b, from the tail that keeps its digits."""
    upper = std_normal_cdf(-a) - std_normal_cdf(-b)
    lower = std_normal_cdf(b) - std_normal_cdf(a)
    middle = std_normal_cdf_minus_half(b) - std_normal_cdf_minus_half(a)
    return np.where(a >= 1.0, upper, np.where(b <= -1.0, lower, middle))


def _tail(x, b):
    """Phi(-x)/2 - T(x, b) for x >= 0: the mass beyond the line at distance x, past the angle arctan(b) from its foot.

    For b > 1 that difference cancels by up to exp(x^2 / 2), so it is taken
    as T(bx, 1/b) - Phi(-bx) (Phi(x) - 1/2), from Owen's T(h, a) + T(ah, 1/a)
    = (Phi(h) + Phi(ah))/2 - Phi(h) Phi(ah).  Either way the rounding is
    within a few ulps of exp(-max(x, bx)^2 / 2), at most exp(-d^2 / 4) for
    the region's distance d = x sqrt(1 + b^2) from the origin.
    """
    far = (b > 1.0) & np.isfinite(b)
    b_far = np.where(far, b, 1.0)
    bx = np.where(far, b_far * x, 0.0)
    near = 0.5 * std_normal_cdf(-x) - owens_t(x, np.where(far, 0.0, b))
    return np.where(far, owens_t(bx, 1.0 / b_far) - std_normal_cdf(-bx) * std_normal_cdf_minus_half(x), near)


def _orthant(h, k, a_h, a_k, arc):
    """P(U <= h, V <= k) for standard normals U, V of correlation rho, by Owen's (1956) T.

    Owen's form is 1/2 Phi(h) + 1/2 Phi(k) - T(h, a_h) - T(k, a_k) - beta,
    with a_h = (k - rho h) / (h r), a_k = (h - rho k) / (k r),
    r = sqrt(1 - rho^2), and beta = 1/2 if hk < 0, or if one of them is 0 and
    the other negative.  The caller passes a_h and a_k, formed without the
    differences k - rho h and h - rho k, which cancel at a sharp vertex.  A
    zero argument takes the limit from above, a_h = +/-inf with the sign of
    k, and h = k = 0 gives ``arc`` = 1/4 + arcsin(rho) / (2 pi).  Regrouped
    by argument, each term is a :func:`_tail`: +_tail(-x, a_x) for x < 0 and
    1/2 - _tail(x, -a_x) for x >= 0, so a mass far from the origin is a sum
    of small terms, not a difference of halves.
    """
    both_zero = (h == 0.0) & (k == 0.0)
    a_h = np.where(both_zero, 0.0, np.where(h == 0.0, np.copysign(np.inf, k), a_h))
    a_k = np.where(both_zero, 0.0, np.where(k == 0.0, np.copysign(np.inf, h), a_k))
    x, a = np.stack(np.broadcast_arrays(h, k)), np.stack(np.broadcast_arrays(a_h, a_k))
    sign = np.where(x < 0.0, 1.0, -1.0)
    mass = ((h >= 0.0) & (k >= 0.0)) + (sign * _tail(np.abs(x), sign * a)).sum(axis=0)
    return np.where(both_zero, arc, mass)


# a fan triangle whose far vertex is within sqrt(2 * _SERIES_S) sigma of
# theta* takes the series of P(2, s); there the closed form cancels.  At
# s <= 2 the series' 40th term is below 1e-34 of its first
_SERIES_S = 2.0
_SERIES_TERMS = 40


def _fan_series(q, qx1, qx2, s1, s2):
    """(1/2pi) integral P(2, s) dalpha over fan triangles, by the series of P(2, s) in s.

    Along the edge, x = tan of the angle from theta*'s foot, s = q (1 + x^2)
    with q = h^2 / 2, and dalpha = dx / (1 + x^2).  P(2, s) = sum_{m >= 2}
    (-1)^m s^m / ((m - 2)! m), and J_m(x) = integral_0^x s^m dalpha =
    (x q s^(m-1) + 2 (m - 1) q J_(m-1)) / (2m - 1), J_1 = q x, is odd in x
    with the sign of x in every term, so J_m(x2) - J_m(x1) only cancels as
    much as the edge is short.  ``qx1``, ``qx2`` are q x at the two ends and
    ``s1``, ``s2`` the s there, each at most ``_SERIES_S``; all are 1-D.

    A row stops once no later term can change its sum, so it keeps the bits
    of the full ``_SERIES_TERMS`` terms.  |J_m(x)| <= s_max^m |atan x|, so
    term m is at most (|atan x1| + |atan x2|) s_max^m / ((m - 2)! m), which
    falls with m from m = 3 on at s_max <= 2; below a quarter of the spacing
    of |sum| (half the spacing below a power of two) it rounds away.
    """
    out = np.empty(np.shape(q))
    rows = np.arange(out.size)
    reach = np.abs(np.arctan2(qx1, q)) + np.abs(np.arctan2(qx2, q))
    s_max = np.maximum(s1, s2)
    j1, j2 = qx1, qx2
    p1 = p2 = 1.0
    total = np.zeros(out.shape)
    factorial = 1.0
    for m in range(2, _SERIES_TERMS + 2):
        p1, p2 = p1 * s1, p2 * s2
        j1 = (qx1 * p1 + 2.0 * (m - 1) * q * j1) / (2 * m - 1)
        j2 = (qx2 * p2 + 2.0 * (m - 1) * q * j2) / (2 * m - 1)
        factorial *= max(m - 2, 1)
        term = (j2 - j1) / (factorial * m)
        total = total + term if m % 2 == 0 else total - term
        if m % 4 == 3:
            bound = reach * np.maximum(p1, p2) * s_max / (factorial * (m - 1) * (m + 1))  # on term m + 1
            done = bound < 0.25 * np.spacing(np.abs(total))
            if done.any():
                out[rows[done]] = total[done]
                rows, total, j1, j2, p1, p2, q, qx1, qx2, s1, s2, reach, s_max = (
                    v[~done] for v in (rows, total, j1, j2, p1, p2, q, qx1, qx2, s1, s2, reach, s_max)
                )
                if not rows.size:
                    break
    out[rows] = total
    return out / (2.0 * math.pi)


def _fan_bracket(a, tau, tau_end, cross, dot, s1, s2, sigma):
    """Each fan triangle's interior bracket in :func:`risk_polygon_exact`, over broadcast arguments.

    Besides its edge's a, tau and tau_end, a fan triangle (theta*, v_i, v_j) takes
    cross = a L and dot = (theta* - v_i).(theta* - v_j), whose arctan2 is the
    angle the edge subtends, and s1, s2 = ||theta* - v||^2 / (2 sigma^2) at v_i, v_j.
    """
    a, tau, tau_end, cross, dot, s1, s2, sigma = np.broadcast_arrays(a, tau, tau_end, cross, dot, s1, s2, sigma)
    series = np.maximum(s1, s2) <= _SERIES_S
    closed = ~series & (a != 0.0)
    bracket = np.zeros(a.shape)
    if series.any():
        a_s, sig_s = a[series], sigma[series]
        two_sig2 = 2.0 * sig_s * sig_s
        q, qx1, qx2 = (x / two_sig2 for x in (a_s * a_s, -a_s * tau[series], -a_s * tau_end[series]))
        bracket[series] = _fan_series(q, qx1, qx2, s1[series], s2[series])
    if closed.any():
        a_c, tau_c, end_c, sig_c = a[closed], tau[closed], tau_end[closed], sigma[closed]
        angle = np.arctan2(cross[closed], dot[closed])
        h = a_c / sig_c
        bracket[closed] = (
            angle / (2.0 * math.pi)
            - (owens_t(h, -end_c / a_c) - owens_t(h, -tau_c / a_c))
            - 0.5 * h * std_normal_pdf(h) * _normal_mass(-tau_c / sig_c, -end_c / sig_c)
        )
    return bracket


def risk_polygon_exact(P: ConvexPolytope, theta, sigma) -> PolygonRisk:
    """Exact risk E||Pi_P(theta* + sigma Z) - theta*||^2 for a planar polytope, piece by piece.

    ``theta`` is one theta* or an (m, 2) array of them, each a point of P;
    ``sigma`` is one noise level.  Edge k = (v_i -> v_j) has unit tangent
    t_k, outward normal n_k and length L_k; tau_k = (theta* - v_i).t_k and
    a_k = (v_i - theta*).n_k >= 0.  With alpha = -tau_k/sigma and
    beta = (L_k - tau_k)/sigma:

        strip k:   Phi(-a_k/sigma) [sigma^2 integral_alpha^beta z^2 phi(z) dz
                                    + a_k^2 (Phi(beta) - Phi(alpha))]
        vertex j:  ||v_j - theta*||^2 Phi_2((tau_k - L_k)/sigma, -tau_(k+1)/sigma;
                                             -t_k.t_(k+1)),  k the edge ending at v_j
        interior:  2 sigma^2 sum_k [ (atan x2 - atan x1)/2pi - (T(h, x2) - T(h, x1))
                                     - (h/2) phi(h) (Phi(h x2) - Phi(h x1)) ]

    over the fan triangles (theta*, v_i, v_j), with h = a_k/sigma,
    x1 = -tau_k/a_k and x2 = (L_k - tau_k)/a_k; a triangle with a_k = 0 has no
    area.  Phi_2 is the bivariate normal orthant mass (:func:`_orthant`); a
    segment's end has t_(k+1) = -t_k and mass Phi((tau_k - L_k)/sigma), and a
    point's one vertex has mass 1.  A fan triangle within
    sqrt(2 _SERIES_S) sigma of theta* takes the series of :func:`_fan_series`,
    so the interior does not cancel however large sigma is.

    Raises ``FloatingPointError`` naming the first theta* whose risk is not
    a finite value in [0, squared diameter].
    """
    if P.dim != 2:
        raise ValueError("risk_polygon_exact requires a planar polytope")
    thetas = _member_points(P, theta)
    single = np.ndim(theta) == 1
    sigma = _sigma(sigma)
    v = P.vertices
    k = len(v)
    m = len(thetas)
    # w[:, i] = theta* - v_i
    w = thetas[:, None, :] - v[None, :, :]
    dist_sq = np.einsum("mkd,mkd->mk", w, w)
    if k == 1:
        strips, corners, interior = np.zeros((m, 0)), dist_sq, np.zeros(m)
    else:
        ends = [j for _, j in _edge_chain(k)] if k >= 3 else [1, 0]
        edge = v[ends] - v
        length = np.hypot(edge[:, 0], edge[:, 1])
        t = edge / length[:, None]
        normal = np.stack([t[:, 1], -t[:, 0]], axis=1)
        tau = np.einsum("mkd,kd->mk", w, t)
        # (theta* - v_j).t_k for the end v_j of edge k, taken directly, not as tau - L
        tau_end = np.einsum("mkd,kd->mk", w[:, ends], t)
        a = -np.einsum("mkd,kd->mk", w, normal)
        lo, hi = -tau / sigma, -tau_end / sigma
        strips = std_normal_cdf(-a / sigma) * (
            sigma * sigma * _int_z2_phi(lo, hi) + a * a * _normal_mass(lo, hi)
        )
        # vertex j ends edge j - 1 and starts edge j
        h = np.roll(tau_end, 1, axis=1) / sigma
        if k == 2:
            mass, interior = std_normal_cdf(h), np.zeros(m)
        else:
            # with p = j - 1 the edge into v_j: a_h = -a_p / tau_end_p and
            # a_k = a_j / tau_j, and the normal cone spans the turning angle at v_j
            a_in, end_in = np.roll(a, 1, axis=1), np.roll(tau_end, 1, axis=1)
            before = np.roll(t, 1, axis=0)
            turn = np.arctan2(before[:, 0] * t[:, 1] - before[:, 1] * t[:, 0], np.einsum("kd,kd->k", before, t))
            with np.errstate(divide="ignore", invalid="ignore"):
                mass = _orthant(h, -tau / sigma, -a_in / end_in, a / tau, turn / (2.0 * math.pi))
            two_sig2 = 2.0 * sigma * sigma
            dot = np.einsum("mkd,mkd->mk", w, w[:, ends])
            s1, s2 = dist_sq / two_sig2, dist_sq[:, ends] / two_sig2
            # the angle's sine is taken as a L, so that a rounded a and the angle share one sign
            interior = two_sig2 * _fan_bracket(a, tau, tau_end, a * length, dot, s1, s2, sigma).sum(axis=1)
        corners = dist_sq * mass
    total = interior + strips.sum(axis=1) + corners.sum(axis=1)
    _check_range("polygon risk", total, P.squared_diameter(), {"theta*": thetas, "sigma": sigma})
    if single:
        return PolygonRisk(float(interior[0]), strips[0], corners[0], float(total[0]))
    return PolygonRisk(interior, strips, corners, total)


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
