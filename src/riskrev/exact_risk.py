"""Exact risks of the projection estimator onto planar polytopes.

In the model Y = theta* + sigma Z, Z standard normal in the plane, the risk
E||Pi(Y) - theta*||^2 of projecting onto a convex polytope splits over the
projector's pieces (:class:`PolygonRisk`).  One kernel, :func:`_pieces`,
evaluates them in Phi, phi and Owen's T for a batch of polytopes with K
vertices each, one theta* each, over a sigma grid.  It takes every edge and
vertex of every polytope in one pass, each piece an array over (polytope,
edge, sigma), in blocks of noise levels that keep its temporaries in cache;
each entry rounds as it would alone.  :func:`risk_polygon_exact` is its
call for any planar polytope at many theta*, and the reversal scan stacks
both of its sets into one call; the running example's
:func:`risk_segment_exact` and :func:`risk_triangle_exact` are its K = 2 and
K = 3 calls over a whole (c, sigma) grid, beside the two noise limits of
their difference.  A scalar sigma gives floats, an array gives arrays entry
by entry equal to the scalar calls, a sigma outside ``SIGMA_RANGE`` is
refused, and so is a total outside [0, squared diameter].
"""

import math
import sys
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
    _member_points,
    _points,
    _real,
    _real_array,
)


# the exact engine's noise levels: sigma^2 is a normal float, so the pieces'
# sigma^2 factors keep full precision, and 2 sigma^2 is finite
SIGMA_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 2.0))


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


def _half_z2_phi(x):
    """integral_0^x z^2 phi(z) dz = sign(x) P(3/2, x^2/2) / 2, to a few ulps for every x.

    Below |x| = 1, where Phi(x) - 1/2 - x phi(x) cancels, it sums the positive
    series of P: phi(x) (|x|^3/3 + |x|^5/(3*5) + |x|^7/(3*5*7) + ...).
    """
    def series(r):
        r2 = r * r
        term = r2 * r / 3.0
        total = term.copy()
        k = 5.0
        # a converged sum ignores the smaller terms it adds while other entries go on
        while (term > 1e-17 * total).any():
            term *= r2 / k
            total += term
            k += 2.0
        return total * std_normal_pdf(r)

    r = np.abs(np.asarray(x, dtype=float))
    small = r < 1.0
    big = (~small, lambda r: std_normal_cdf_minus_half(r) - r * std_normal_pdf(r))
    return np.copysign(_by_mask(np.empty(r.shape), (big, (small, series)), r), x)


def _check_range(name, total, diameter_sq, at):
    """Raise ``FloatingPointError`` unless each entry of ``total`` lies in [0, diameter_sq (1 + 1e-9)].

    theta* lies in the set, so no loss exceeds its squared diameter; NaN and
    inf fail, and so does any piece that is not finite.  The error names the
    first failing entry by its values in ``at``, each broadcast against
    ``total`` (theta* keeps its coordinate axis).
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


def _by_mask(out, cases, *args):
    """``out`` with out[mask] = form(*(x[mask] for x in args)) for each (mask, form), each form run only there.

    Arguments are broadcast against a mask's leading axes unless it holds everywhere.
    """
    for rows, form in cases:
        if rows.all():
            out[...] = form(*args)
        elif rows.any():
            out[rows] = form(*(np.broadcast_to(x, rows.shape + np.shape(x)[rows.ndim:])[rows] for x in args))
    return out


def _normal_mass(a, b):
    """P(a <= Z <= b) elementwise, for a <= b: the upper tail where a >= 1, the lower where b <= -1, else centred."""
    upper, lower = np.broadcast_arrays(a >= 1.0, b <= -1.0)
    lower = lower & ~upper
    return _by_mask(np.empty(upper.shape), (
        (upper, lambda a, b: std_normal_cdf(-a) - std_normal_cdf(-b)),
        (lower, lambda a, b: std_normal_cdf(b) - std_normal_cdf(a)),
        (~(upper | lower), lambda a, b: std_normal_cdf_minus_half(b) - std_normal_cdf_minus_half(a)),
    ), a, b)


def _tail(x, b):
    """Phi(-x)/2 - T(x, b) for x >= 0: the mass beyond the line at distance x, past the angle arctan(b) from its foot.

    For b > 1 that difference cancels by up to exp(x^2 / 2), so it is taken
    as T(bx, 1/b) - Phi(-bx) (Phi(x) - 1/2), from Owen's T(h, a) + T(ah, 1/a)
    = (Phi(h) + Phi(ah))/2 - Phi(h) Phi(ah).  Either way the rounding is
    within a few ulps of exp(-max(x, bx)^2 / 2), at most exp(-d^2 / 4) for
    the region's distance d = x sqrt(1 + b^2) from the origin.
    """
    far, _ = np.broadcast_arrays((b > 1.0) & np.isfinite(b), x)
    return _by_mask(np.empty(far.shape), (
        (~far, lambda x, b: 0.5 * std_normal_cdf(-x) - owens_t(x, b)),
        (far, lambda x, b: owens_t(b * x, 1.0 / b) - std_normal_cdf(-b * x) * std_normal_cdf_minus_half(x)),
    ), x, b)


def _orthant(h, k, a_h, a_k, arc, sigma):
    """P(U <= h/sigma, V <= k/sigma) for standard normals U, V of correlation rho, by Owen's (1956) T.

    With h' = h/sigma and k' = k/sigma, Owen's form is 1/2 Phi(h') + 1/2 Phi(k')
    - T(h', a_h) - T(k', a_k) - beta, with a_h = (k - rho h) / (h r),
    a_k = (h - rho k) / (k r), r = sqrt(1 - rho^2), and beta = 1/2 if hk < 0,
    or if one of them is 0 and the other negative.  The caller passes a_h
    and a_k, formed without the differences k - rho h and h - rho k, which
    cancel at a sharp vertex.  A zero argument takes the limit from above,
    a_h = +/-inf with the sign of k, and h = k = 0 gives ``arc`` =
    1/4 + arcsin(rho) / (2 pi).  Regrouped by argument, each term is a
    :func:`_tail`: +_tail(-x', a_x) for x < 0 and 1/2 - _tail(x', -a_x) for
    x >= 0, so a far mass is a sum of small terms, not a difference of halves.
    All but ``sigma``, (S,), are (..., 1) columns.
    """
    terms = []
    for x, a_x, other in ((h, a_h, k), (k, a_k, h)):
        sign = np.where(x < 0.0, 1.0, -1.0)
        a_x = np.where(x == 0.0, np.copysign(np.inf, other), a_x)
        terms.append(sign * _over(_tail, np.abs(x), sigma, sign * a_x))
    return np.where((h == 0.0) & (k == 0.0), arc, ((h >= 0.0) & (k >= 0.0)) + (terms[0] + terms[1]))


def _over(form, x, sigma, *args):
    """form(x / sigma, *args) as (..., S) from (..., 1) columns; a row whose x is +/-0, as all its ratios are,
    is evaluated once, on x itself."""
    zero = x[..., 0] == 0.0
    if not zero.any():
        return form(x / sigma, *args)
    return _by_mask(np.empty(x.shape[:-1] + sigma.shape), [
        (zero, form),
        (~zero, lambda x, *args: form(x / sigma, *args)),
    ], x, *args)


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
    ``s1``, ``s2`` the s there, each at most ``_SERIES_S``; all have one shape.

    A row stops once no later term can change its sum, so it keeps the bits
    of the full ``_SERIES_TERMS`` terms.  |J_m(x)| <= s_max^m |atan x|, so
    term m is at most (|atan x1| + |atan x2|) s_max^m / ((m - 2)! m), which
    falls with m from m = 3 on at s_max <= 2; below a quarter of the spacing
    of |sum| (half the spacing below a power of two) it rounds away.
    """
    shape = np.shape(q)
    q, qx1, qx2, s1, s2 = (np.ravel(x) for x in (q, qx1, qx2, s1, s2))
    out = np.empty(q.size)
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
    return (out / (2.0 * math.pi)).reshape(shape)


def _fan_bracket(a, tau, tau_end, cross, dot, s1, s2, sigma):
    """Each fan triangle's interior bracket in :func:`risk_polygon_exact`, over broadcast arguments.

    Besides its edge's a != 0 (a triangle with a = 0 has no area), tau and
    tau_end, a fan triangle (theta*, v_i, v_j) takes cross = a L and dot =
    (theta* - v_i).(theta* - v_j), whose arctan2 is the angle the edge
    subtends, and s1, s2 = ||theta* - v||^2 / (2 sigma^2) at v_i, v_j, which
    carry the full shape.
    """
    def series(a, tau, tau_end, cross, dot, s1, s2, sigma):
        two_sig2 = 2.0 * sigma * sigma
        q, qx1, qx2 = (x / two_sig2 for x in (a * a, -a * tau, -a * tau_end))
        return _fan_series(*np.broadcast_arrays(q, qx1, qx2, s1, s2))

    def closed(a, tau, tau_end, cross, dot, s1, s2, sigma):
        h = a / sigma
        return (
            np.arctan2(cross, dot) / (2.0 * math.pi)
            - (owens_t(h, -tau_end / a) - owens_t(h, -tau / a))
            - 0.5 * h * std_normal_pdf(h) * _normal_mass(-tau / sigma, -tau_end / sigma)
        )

    near = np.maximum(s1, s2) <= _SERIES_S
    return _by_mask(np.empty(near.shape), ((near, series), (~near, closed)), a, tau, tau_end, cross, dot, s1, s2, sigma)


# entries per (G, K, B) piece of a block of B noise levels in _pieces
_BLOCK = 1 << 16


def _pieces(v, theta, sigma):
    """The risk's pieces for G polytopes with K vertices each, one theta* each, at S noise levels.

    ``v`` is (G, K, 2), vertices as :class:`ConvexPolytope` stores them,
    ``theta`` (G, 2) and ``sigma`` (S,).  Returns the interior and the total
    as (G, S) and the strips and vertices as (G, S, K), by the formulas of
    :func:`risk_polygon_exact`.  Every edge and vertex of every polytope is
    evaluated in one pass: geometry is a (G, K, 1) column against a block
    of B noise levels, about ``_BLOCK`` entries per (G, K, B) piece, and
    each piece is moved to (G, S, K) before the sums over K.  A piece that
    is exactly zero is not evaluated: an edge's a^2 term and fan triangle
    where a = 0, a vertex's cone where theta* is that vertex; each gathers
    the (G, K) rows of its mask where the mask is mixed.  An interval end
    or orthant argument that is 0 in a row is evaluated once for that row.
    """
    g, k = v.shape[:2]
    shape = (g, len(sigma))
    # w[:, i] = theta* - v_i
    w = theta[:, None, :] - v
    dist_sq = np.einsum("gkd,gkd->gk", w, w)
    interior = np.zeros(shape)
    if k == 1:
        strips, corners = np.zeros(shape + (0,)), np.broadcast_to(dist_sq[:, None], shape + (1,)).copy()
    else:
        # edge k runs from v_k to v_ends[k], and edge starts[j] = j - 1 ends at v_j
        ends, starts = [(i + 1) % k for i in range(k)], [(i - 1) % k for i in range(k)]
        edge = v[:, ends] - v
        length = np.hypot(edge[..., 0], edge[..., 1])
        t = edge / length[..., None]
        tau = np.einsum("gkd,gkd->gk", w, t)
        # (theta* - v_j).t_k for the end v_j of edge k, taken directly, not as tau - L
        tau_end = np.einsum("gkd,gkd->gk", w[:, ends], t)
        a = -np.einsum("gkd,gkd->gk", w, np.stack([t[..., 1], -t[..., 0]], axis=-1))
        if k == 2:
            # one offset from the segment's line, on opposite sides of its two edges
            a[:, 1] = -a[:, 0]
        # vertex j ends edge p = j - 1 and starts edge j: a_h = -a_p / tau_end_p and
        # a_k = a_j / tau_j, and its normal cone spans the turning angle at v_j
        before = t[:, starts]
        turn = np.arctan2(before[..., 0] * t[..., 1] - before[..., 1] * t[..., 0], np.einsum("gkd,gkd->gk", before, t))
        end_in = tau_end[:, starts]
        with np.errstate(divide="ignore", invalid="ignore"):
            a_h, a_k = -a[:, starts] / end_in, a / tau
        # a fan triangle subtends arctan2(a L, dot): a rounded a and the angle share one sign
        cross, dot = a * length, np.einsum("gkd,gkd->gk", w, w[:, ends])
        # geometry rows become (G, K, 1) columns against sigma's (S,)
        a, tau, tau_end, cross, dot, dist_sq, end_in, a_h, a_k, arc = (
            x[..., None] for x in (a, tau, tau_end, cross, dot, dist_sq, end_in, a_h, a_k, turn / (2.0 * math.pi))
        )
        moved = a[..., 0] != 0.0
        # a segment's second edge is its first reversed: the interval [-beta, -alpha] has the same band
        banded = slice(None) if k > 2 else slice(0, 1)

        def cone(dist_sq, end_in, tau, a_h, a_k, arc, sigma):
            # a segment's end has the mass of one half-plane
            mass = std_normal_cdf(end_in / sigma) if k == 2 else _orthant(end_in, -tau, a_h, a_k, arc, sigma)
            return dist_sq * mass

        def block(sigma):
            """The interior, strips and vertices at the (B,) noise levels ``sigma``, from (G, K, B) pieces."""
            sig2 = sigma * sigma
            # sigma^2 integral_lo^hi z^2 phi(z) dz over the edge's interval [lo, hi] sigma, as two halves from 0
            lo, hi = -tau[:, banded], -tau_end[:, banded]
            band = sig2 * (_over(_half_z2_phi, hi, sigma) - _over(_half_z2_phi, lo, sigma))

            def mass(band, a, lo, hi):
                # an end that is 0 in every row stays a column, as all its ratios are
                return band + a * a * _normal_mass(*(x / sigma if x.any() else x for x in (lo, hi)))

            _by_mask(band, [(moved[:, banded], mass)], band, a[:, banded], lo, hi)
            if k == 2:
                band = band[:, [0, 0]]
            # the strip's weight Phi(-a/sigma) is 1/2 at a = 0
            strips = _by_mask(0.5 * band, [(moved, lambda band, a: std_normal_cdf(-a / sigma) * band)], band, a)
            corners = _by_mask(np.zeros(band.shape), [(dist_sq[..., 0] != 0.0, lambda *args: cone(*args, sigma))],
                               dist_sq, end_in, tau, a_h, a_k, arc)
            interior = 0.0
            if k > 2:
                def fan(a, tau, tau_end, cross, dot, dist_sq, dist_sq_end):
                    # at small sigma s overflows to inf, a fan triangle as far as any
                    with np.errstate(over="ignore"):
                        s1, s2 = dist_sq / (2.0 * sig2), dist_sq_end / (2.0 * sig2)
                    return _fan_bracket(a, tau, tau_end, cross, dot, s1, s2, sigma)

                bracket = _by_mask(np.zeros(band.shape), [(moved, fan)],
                                   a, tau, tau_end, cross, dot, dist_sq, dist_sq[:, ends])
                # numpy sums a contiguous last axis pairwise from K = 8 on, so the
                # sum over K runs on a C-ordered (G, B, K) copy, as the strips' and vertices' do
                interior = 2.0 * sig2 * np.ascontiguousarray(np.moveaxis(bracket, 1, -1)).sum(axis=-1)
            return interior, np.moveaxis(strips, 1, -1), np.moveaxis(corners, 1, -1)

        strips, corners = np.empty(shape + (k,)), np.empty(shape + (k,))
        # about _BLOCK entries per (G, K, B) piece keep a block's temporaries in cache
        step = max(1, _BLOCK // (g * k))
        for i in range(0, len(sigma), step):
            cols = slice(i, i + step)
            interior[:, cols], strips[:, cols], corners[:, cols] = block(sigma[cols])
    total = interior + strips.sum(axis=-1) + corners.sum(axis=-1)
    return interior, strips, corners, total


def _risk(name, v, theta, sigma, diameter_sq, at, lead):
    """One range-checked :func:`_pieces` call over any shape of ``sigma``, as a PolygonRisk over ``lead`` + it.

    ``at`` holds the (G, 1) row values that a range error names besides
    sigma.  A sigma outside ``SIGMA_RANGE`` raises ValueError naming it.
    """
    low, high = SIGMA_RANGE
    outside = sigma[(sigma < low) | (sigma > high)]
    if outside.size:
        raise ValueError(
            f"sigma {float(outside[0])!r} is outside the exact engine's range [{low!r}, {high!r}], "
            "where sigma^2 is a normal float and 2 sigma^2 is finite"
        )
    pieces = _pieces(v, theta, sigma.reshape(-1))
    _check_range(name, pieces[3], diameter_sq, {**at, "sigma": sigma.reshape(-1)})
    interior, strips, corners, total = (x.reshape(lead + sigma.shape + x.shape[2:]) for x in pieces)
    return PolygonRisk(_result(interior), strips, corners, _result(total))


def risk_polygon_exact(P: ConvexPolytope, theta, sigma) -> PolygonRisk:
    """Exact risk E||Pi_P(theta* + sigma Z) - theta*||^2 for a planar polytope, piece by piece.

    ``theta`` is one theta* or an (m, 2) array of them, each a point of P.
    ``sigma`` is one noise level or an array of them, whose axes come before
    the piece index, each entry the bits of its scalar call.  Edge
    k = (v_i -> v_j) has unit tangent t_k, outward normal n_k and length
    L_k; tau_k = (theta* - v_i).t_k and a_k = (v_i - theta*).n_k >= 0.  With
    alpha = -tau_k/sigma and beta = (L_k - tau_k)/sigma:

        strip k:   Phi(-a_k/sigma) [sigma^2 integral_alpha^beta z^2 phi(z) dz
                                    + a_k^2 (Phi(beta) - Phi(alpha))]
        vertex j:  ||v_j - theta*||^2 Phi_2((tau_k - L_k)/sigma, -tau_(k+1)/sigma;
                                             -t_k.t_(k+1)),  k the edge ending at v_j
        interior:  2 sigma^2 sum_k [ (atan x2 - atan x1)/2pi - (T(h, x2) - T(h, x1))
                                     - (h/2) phi(h) (Phi(h x2) - Phi(h x1)) ]

    over the fan triangles (theta*, v_i, v_j), with h = a_k/sigma,
    x1 = -tau_k/a_k and x2 = (L_k - tau_k)/a_k; a triangle with a_k = 0 has no
    area.  Phi_2 is the bivariate normal orthant mass (:func:`_orthant`).  A
    segment is the chain v_0 -> v_1 -> v_0 with a_1 = -a_0, and its end has
    t_(k+1) = -t_k and mass Phi((tau_k - L_k)/sigma); a point's one vertex
    has mass 1.  A fan triangle within sqrt(2 _SERIES_S) sigma of theta*
    takes the series of :func:`_fan_series`, so the interior does not cancel
    however large sigma is.  Raises ``ValueError`` naming the first sigma
    outside ``SIGMA_RANGE``, about [1.5e-154, 9.5e153], and
    ``FloatingPointError`` naming the first (theta*, sigma) whose risk is
    not a finite value in [0, squared diameter].
    """
    v, thetas = _polygon_rows(P, theta)
    lead = () if np.ndim(theta) == 1 else thetas.shape[:1]
    return _risk("polygon risk", v, thetas, _sigmas(sigma), P.squared_diameter(), {"theta*": thetas[:, None]}, lead)


def _polygon_rows(P: ConvexPolytope, theta):
    """``P``'s vertices as one (K, 2) row per theta* of ``theta``, and the theta* as (m, 2), each a point of P."""
    if P.dim != 2:
        raise ValueError("risk_polygon_exact requires a planar polytope")
    thetas = _member_points(P, theta)
    return np.broadcast_to(P.vertices, (len(thetas),) + P.vertices.shape), thetas


def _polygon_totals(sets, sigma) -> list[np.ndarray]:
    """``risk_polygon_exact(P, thetas, sigma).total`` for each (P, thetas) of ``sets``, bit for bit.

    ``thetas`` is (m, 2) and ``sigma`` 1-D.  The rows of every set with K
    vertices are stacked into one :func:`_pieces` call per K, each row
    range-checked against its own set's squared diameter.
    """
    sigma = _sigmas(sigma)
    rows = [(*_polygon_rows(P, thetas), P.squared_diameter()) for P, thetas in sets]
    totals = [None] * len(rows)
    for k in sorted({v.shape[1] for v, _, _ in rows}):
        group = [i for i, (v, _, _) in enumerate(rows) if v.shape[1] == k]
        sizes = [len(rows[i][1]) for i in group]
        v, theta = (np.concatenate([rows[i][j] for i in group]) for j in (0, 1))
        diameter_sq = np.repeat([rows[i][2] for i in group], sizes)[:, None]
        total = _risk("polygon risk", v, theta, sigma, diameter_sq, {"theta*": theta[:, None]}, theta.shape[:1]).total
        for i, part in zip(group, np.split(total, np.cumsum(sizes)[:-1])):
            totals[i] = part
    return totals


def _example_risk(name, g, sigma, t_star=None):
    """The segment at theta* = t_star v2 (K = 2) or, without ``t_star``, the triangle at v1 (K = 3), in one
    :func:`_pieces` call over every geometry of ``g`` and every sigma, vertices in ``g.triangle()`` order."""
    sigmas = _sigmas(sigma)
    one = isinstance(g, ExampleGeometry)
    c = np.array([e.c for e in ([g] if one else g)], dtype=float)[:, None]
    # v1 = (0, 0), v2 = (1/c, 1), v3 = (0, 1)
    v = np.zeros((len(c), 3 if t_star is None else 2, 2))
    v[:, 1:, 1] = 1.0
    v[:, 1, 0] = 1.0 / c[:, 0]
    theta = v[:, 0] if t_star is None else t_star * v[:, 1]
    return _risk(name, v, theta, sigmas, 1.0 + 1.0 / (c * c), {"c": c}, () if one else c.shape[:1])


def risk_segment_exact(g, t_star: float, sigma):
    """Exact risk of projection onto the segment conv{v1, v2}: :func:`risk_polygon_exact` at theta* = t_star v2.

    With t* in [0, 1], a = -sqrt(alpha_c) t*/sigma and b = sqrt(alpha_c)(1 - t*)/sigma it is

        alpha_c [ t*^2 Phi(a) + (sigma^2/alpha_c) integral_a^b z^2 phi(z) dz
                  + (1 - t*)^2 Phi(-b) ].

    ``g`` is an :class:`ExampleGeometry` or a sequence; a sequence gives one
    row per geometry, each the bits of its own call.  Raises
    ``FloatingPointError`` naming the first (c, sigma) whose risk is not in [0, alpha_c].
    """
    given, t_star = t_star, _real(t_star)
    if not (math.isfinite(t_star) and 0.0 <= t_star <= 1.0):
        raise ValueError(f"t_star must lie in [0, 1], got {given!r}")
    return _example_risk("segment risk", g, sigma, t_star).total


def risk_triangle_exact(g, sigma) -> PolygonRisk:
    """Exact risk of projection onto the triangle conv{v1, v2, v3} at theta* = v1, piece by piece.

    It is :func:`risk_polygon_exact` on ``g.triangle()`` at v1, bit for bit:
    strips outside edges v1v2, v2v3, v3v1 and the cones of v1, v2, v3, the
    piece index last.  ``g`` is an :class:`ExampleGeometry` or a sequence;
    a sequence adds a leading slope axis, each row the bits of its own call.
    Raises ``FloatingPointError`` naming the first (c, sigma) whose risk is
    not in [0, alpha_c].
    """
    return _example_risk("triangle risk", g, sigma)


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
