"""Noise-limit behavior of the projection estimator.

As sigma -> 0 the risk behaves like sigma^2 times the statistical dimension
of the tangent cone at theta*.  As sigma -> infinity the estimator lands on
the vertex exposed by the noise direction, so the risk converges to
sum_i p_i ||v_i - theta*||^2 with p_i the normal-cone arc fractions.  This
module computes both regimes analytically in the plane and by Monte Carlo in
general, evaluates worst-case (sup over theta*) limiting risks and their
envelope over the movable-vertex triangle family, and searches a noise grid
for a finite-sigma worst-case risk reversal between nested sets.

The reversal scan takes each set's sup-risk as the largest exact risk
(:func:`~riskrev.exact_risk.risk_polygon_exact`) over a candidate grid of
theta* values, and cross-checks the two winners at each sigma by Monte
Carlo on one shared draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exact_risk import _polygon_totals, _sigma, _sigmas
from .geometry import (
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    _ConeBlocks,
    _block_projector,
    _edge_chain,
    _generators,
    _integer,
    _member_points,
    _points,
    _real,
    _real_array,
    normal_cone_angle_2d,
    tangent_cone_2d,
)
from .montecarlo import (
    DEFAULT_CHUNK,
    DEFAULT_SEED,
    MCConfig,
    RiskEstimate,
    _chunked_estimate,
    sample_unit_sphere,
)

# number of interior points per polytope edge in the sup-risk candidate grid
DEFAULT_EDGE_POINTS = 32

# a reversal needs sup_small - sup_large above this times max(1, |sup|):
# far above the exact engine's error, which is about 1e-13 relative
REVERSAL_RTOL = 1e-9


@dataclass(frozen=True)
class VertexDistribution:
    """Vertex-selection probabilities aligned with a polytope's vertex order."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = _real_array(self.probs, "probs")
        if probs.ndim != 1 or len(probs) < 1:
            raise ValueError("probs must be a nonempty 1-D array")
        if any(not (-1e-12 <= p <= 1.0 + 1e-12) for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probs", tuple(probs.tolist()))

    def __len__(self) -> int:
        return len(self.probs)


def statistical_dimension_2d(cone: Cone2D) -> float:
    """delta(C) = E||Pi_C(Z)||^2 for a planar cone.

    A ray contributes 1/2, a line 1, a wedge of angle t 1/2 + t/pi (the
    halfplane is the t = pi case), the full plane 2, and the origin 0.
    """
    if cone.kind is ConeKind.POINT:
        return 0.0
    if cone.kind is ConeKind.RAY:
        return 0.5
    if cone.kind is ConeKind.LINE:
        return 1.0
    if cone.kind is ConeKind.WEDGE:
        return 0.5 + cone.apex_angle / math.pi
    if cone.kind is ConeKind.HALFPLANE:
        return 1.5
    return 2.0


def statistical_dimension_mc(generators, n: int, seed: int = DEFAULT_SEED) -> RiskEstimate:
    """Monte Carlo statistical dimension of cone{g_1, ..., g_m}.

    Averages ||Pi_C(Z)||^2 over standard normal draws using the exact
    nonnegative least-squares cone projection, as the one Monte Carlo
    job at theta* = 0, sigma = 1; deterministic in ``seed``.
    """
    G = _generators(generators)
    cfg = MCConfig(n=n, seed=seed)
    job = (_ConeBlocks(G, min(cfg.n, cfg.chunk)), np.zeros(G.shape[1]), 1.0, math.inf)
    return _chunked_estimate(G.shape[1], cfg, [job])[0]


def small_noise_risk(
    P: ConvexPolytope,
    theta,
    sigma: float,
    generators=None,
    n: int = 1_000_000,
    seed: int = DEFAULT_SEED,
) -> float:
    """Leading-order risk sigma^2 * delta(T_P(theta)) for small sigma.

    Planar polytopes are handled analytically through the tangent-cone
    classification; otherwise pass the tangent cone's ``generators``, of
    ``P``'s dimension, to use the Monte Carlo statistical dimension.  Either
    way ``theta`` must be a point of ``P``.
    """
    sigma = _sigma(sigma)
    if generators is not None:
        _member_points(P, [theta], "theta")
        G = _generators(generators)
        if G.shape[1] != P.dim:
            raise ValueError(f"generators have dimension {G.shape[1]}, but the polytope has dimension {P.dim}")
        return sigma * sigma * statistical_dimension_mc(G, n, seed).mean
    if P.dim != 2:
        raise ValueError("analytic path requires a planar polytope; pass generators instead")
    return sigma * sigma * statistical_dimension_2d(tangent_cone_2d(P, theta))


def vertex_probabilities_2d(P: ConvexPolytope) -> VertexDistribution:
    """Exact vertex-selection probabilities: normal-cone arcs over 2*pi."""
    if P.dim != 2:
        raise ValueError("vertex_probabilities_2d requires a planar polytope")
    if P.n_vertices == 1:
        return VertexDistribution(probs=(1.0,))
    two_pi = 2.0 * math.pi
    return VertexDistribution(
        probs=tuple(normal_cone_angle_2d(P, i) / two_pi for i in range(P.n_vertices))
    )


def vertex_probabilities_mc(P: ConvexPolytope, n: int, seed: int = DEFAULT_SEED) -> VertexDistribution:
    """Empirical vertex-selection frequencies over uniform random directions.

    Each direction selects the vertex maximizing <v_i, u> (smallest index on
    ties, which happen with probability zero); deterministic in ``seed``.
    """
    directions = sample_unit_sphere(P.dim, n, seed)
    winners = np.argmax(directions @ P.vertices.T, axis=1)
    counts = np.bincount(winners, minlength=P.n_vertices)
    return VertexDistribution(probs=tuple(counts / len(directions)))


def limiting_risk(P: ConvexPolytope, theta, dist: VertexDistribution) -> float:
    """Diverging-noise risk sum_i p_i ||v_i - theta||^2."""
    if len(dist) != P.n_vertices:
        raise ValueError("distribution is not aligned with the polytope's vertices")
    (theta,) = _points([theta], "theta")
    if len(theta) != P.dim:
        raise ValueError(f"theta must be a {P.dim}-vector")
    diff = P.vertices - theta
    return float(np.asarray(dist.probs) @ np.einsum("ij,ij->i", diff, diff))


def theta_x_limiting_risk(c: float, x: float) -> float:
    """Diverging-noise risk at theta* = v1 for the triangle conv{v1, v2, (x, 1)}.

    Equals alpha_c (1/4 + arctan(1/c)/(2 pi)) + (1 + x^2)(1/4 - arctan(x)/(2 pi));
    at the degenerate x = 1/c this reduces to the segment value alpha_c / 2.
    """
    g = ExampleGeometry(c=c, x=x)
    two_pi = 2.0 * math.pi
    p2 = 0.25 + math.atan(1.0 / g.c) / two_pi
    px = 0.25 - math.atan(g.x) / two_pi
    return g.alpha_c * p2 + (1.0 + g.x * g.x) * px


def delta_x(c: float, x: float) -> float:
    """Gap between the limiting risks of the movable triangle and the full one.

    Delta(x) = ((1 + x^2) / (2 pi)) ((pi/2) x^2 / (1 + x^2) - arctan x):
    negative on (0, 1), zero at x = 1, positive for x > 1, so every
    x in (1, 1/c) gives a strictly smaller set with strictly larger
    limiting risk at theta* = v1.
    """
    c = ExampleGeometry(c=c).c
    given, x = x, _real(x)
    if not (math.isfinite(x) and 0.0 < x < 1.0 / c):
        raise ValueError(f"x must lie in (0, 1/c), got {given!r}")
    one_plus = 1.0 + x * x
    return one_plus / (2.0 * math.pi) * (0.5 * math.pi * x * x / one_plus - math.atan(x))


def worst_case_limiting_risk(P: ConvexPolytope, dist: VertexDistribution):
    """Maximum of the limiting risk over theta* in the polytope.

    The limiting risk is a convex quadratic in theta*, so its maximum over
    the polytope is attained at a vertex; returns ``(value, vertex index)``
    with the smallest index on ties.
    """
    if len(dist) != P.n_vertices:
        raise ValueError("distribution is not aligned with the polytope's vertices")
    v = P.vertices
    probs = np.asarray(dist.probs)
    diff = v[:, None, :] - v[None, :, :]
    risks = np.einsum("i,ijk,ijk->j", probs, diff, diff)
    best = int(np.argmax(risks))
    return float(risks[best]), best


def envelope_curve(c: float, x_grid) -> tuple[np.ndarray, ...]:
    """Per-vertex limiting risks of conv{v1, v2, (x, 1)} along a grid of x.

    Returns the float columns ``(x, risk_v1, risk_v2, risk_vx, envelope)``.
    For each x the three worst-case candidates are the vertices; the
    envelope column is their maximum.  Uses the closed-form selection
    probabilities p2 = 1/4 + arctan(1/c)/(2 pi), px = 1/4 - arctan(x)/(2 pi),
    p1 = 1 - p2 - px.
    """
    g = ExampleGeometry(c=c)
    c = g.c
    x = np.array(_real_array(x_grid, "x_grid"))
    if x.ndim != 1 or len(x) < 1:
        raise ValueError("x_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0) or np.any(x > 1.0 / c):
        raise ValueError("x_grid values must lie in [0, 1/c]")
    alpha = g.alpha_c
    two_pi = 2.0 * math.pi
    p2 = 0.25 + math.atan(1.0 / c) / two_pi
    px = 0.25 - np.arctan(x) / two_pi
    p1 = 1.0 - p2 - px
    gap_sq = (1.0 / c - x) ** 2
    norm_sq = 1.0 + x * x
    risk_v1 = alpha * p2 + norm_sq * px
    risk_v2 = alpha * p1 + gap_sq * px
    risk_vx = norm_sq * p1 + gap_sq * p2
    envelope = np.maximum(risk_v1, np.maximum(risk_v2, risk_vx))
    return x, risk_v1, risk_v2, risk_vx, envelope


@dataclass(frozen=True)
class ReversalScan:
    """Result of a finite-sigma worst-case reversal search: the CLI record's entries.

    ``reversal_sigma`` is the smallest grid noise level at which the smaller
    set's sup-risk exceeds the larger set's by more than ``REVERSAL_RTOL``
    times max(1, |sup|), or None.  The other tuples are columns over
    ``sigma_grid``: each set's sup-risk, the largest exact risk over its
    vertices plus ``edge_points`` interior points per edge; the Monte Carlo
    risk at that winning candidate; and that estimate's standard error.
    """

    reversal_sigma: float | None
    sigma_grid: tuple[float, ...]
    sup_small: tuple[float, ...]
    mc_small: tuple[float, ...]
    stderr_small: tuple[float, ...]
    sup_large: tuple[float, ...]
    mc_large: tuple[float, ...]
    stderr_large: tuple[float, ...]
    edge_points: int


def _sup_candidates(P: ConvexPolytope, edge_points: int) -> np.ndarray:
    """The vertices, then ``edge_points`` evenly spaced interior points of each edge of :func:`_edge_chain`."""
    v = P.vertices
    t = np.linspace(0.0, 1.0, edge_points + 2)[1:-1, None]
    return np.vstack([v, *(v[i] + t * (v[j] - v[i]) for i, j in _edge_chain(P.n_vertices))])


def detect_finite_sigma_reversal(
    g_small: ExampleGeometry,
    g_large: ExampleGeometry,
    sigma_grid,
    n: int,
    seed: int = DEFAULT_SEED,
    edge_points: int = DEFAULT_EDGE_POINTS,
    chunk: int = DEFAULT_CHUNK,
) -> ReversalScan:
    """Scan a noise grid for worst-case risk reversal between nested triangles.

    ``g_small`` and ``g_large`` are movable-vertex geometries with the same
    ``c``; a larger x means a smaller set, so nesting requires
    ``g_small.x >= g_large.x`` (equal x compares a set to itself and can
    never report a reversal).  The degenerate x = 1/c is routed to the
    segment.  Small noise levels cannot produce a reversal, so a grid capped
    at small sigma legitimately returns None.

    At each sigma, each set's sup is the exact risk's maximum over the rows
    of :func:`_sup_candidates`, the first candidate on ties.  Monte Carlo at
    ``n`` samples only cross-checks the winners: one pass draws each chunk's
    normals once for all of them (common random numbers), and each estimate
    is bitwise :func:`~riskrev.montecarlo.mc_risk` at its winner and sigma.
    """
    if g_small.x is None or g_large.x is None:
        raise ValueError("both geometries must carry a movable vertex x")
    if g_small.c != g_large.c:
        raise ValueError("geometries must share the slope parameter c")
    if g_small.x < g_large.x:
        raise ValueError("sets are not nested: need x_small >= x_large")
    sigmas = np.atleast_1d(_sigmas(sigma_grid))
    if sigmas.ndim != 1 or len(sigmas) < 1 or np.any(sigmas[1:] <= sigmas[:-1]):
        raise ValueError("sigma_grid must be a nonempty, strictly increasing 1-D array")
    sigmas = sigmas.tolist()
    edge_points = _integer("edge_points", edge_points)
    if edge_points < 0:
        raise ValueError(f"edge_points must be at least 0, got {edge_points}")
    cfg = MCConfig(n=n, seed=seed, chunk=chunk)
    polytopes = [g.theta_x_polytope() for g in (g_small, g_large)]
    candidates = [_sup_candidates(P, edge_points) for P in polytopes]
    # one engine call for both sets, or one per vertex count once x_small = 1/c makes the
    # smaller set a segment: column i of a set's risks holds its candidates' risks at sigmas[i]
    sets = [
        (_block_projector(P, min(cfg.n, cfg.chunk)), P.squared_diameter(), points, risks)
        for P, points, risks in zip(polytopes, candidates, _polygon_totals(zip(polytopes, candidates), sigmas))
    ]
    # sigma-major, the smaller set first at each sigma
    jobs, sups = [], []
    for i, sigma in enumerate(sigmas):
        for projector, diam_sq, candidates, risks in sets:
            best = int(np.argmax(risks[:, i]))
            jobs.append((projector, candidates[best], sigma, diam_sq))
            sups.append(float(risks[best, i]))
    checks = _chunked_estimate(2, cfg, jobs)
    rows = []
    reversal_sigma = None
    for sigma, small, large, mc_small, mc_large in zip(sigmas, sups[::2], sups[1::2], checks[::2], checks[1::2]):
        # the six columns of ReversalScan, in field order
        rows.append((small, mc_small.mean, mc_small.stderr, large, mc_large.mean, mc_large.stderr))
        if reversal_sigma is None and small - large > REVERSAL_RTOL * max(1.0, abs(small), abs(large)):
            reversal_sigma = sigma
    return ReversalScan(reversal_sigma, tuple(sigmas), *zip(*rows), edge_points)
