"""Noise-limit behavior of the projection estimator.

As sigma -> 0 the risk behaves like sigma^2 times the statistical dimension
of the tangent cone at theta*.  As sigma -> infinity the estimator lands on
the vertex exposed by the noise direction, so the risk converges to
sum_i p_i ||v_i - theta*||^2 with p_i the normal-cone arc fractions.  This
module computes both regimes analytically in the plane and by Monte Carlo in
general, evaluates worst-case (sup over theta*) limiting risks and their
envelope over the movable-vertex triangle family, and searches a noise grid
for a finite-sigma worst-case risk reversal between nested sets.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .exact_risk import _sigma, _sigmas
from .geometry import (
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    _member_points,
    _points,
    normal_cone_angle_2d,
    project_cone_nonneg_batch,
    tangent_cone_2d,
)
from .montecarlo import (
    DEFAULT_CHUNK,
    DEFAULT_SEED,
    MCConfig,
    RiskEstimate,
    _chunked_estimate,
    _integer,
    _losses,
    sample_unit_sphere,
)

# number of interior points per polytope edge in the sup-risk candidate grid
DEFAULT_EDGE_POINTS = 32

# separation, in combined standard errors, required to declare a reversal
REVERSAL_STDERR_FACTOR = 4.0


@dataclass(frozen=True)
class VertexDistribution:
    """Vertex-selection probabilities aligned with a polytope's vertex order."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 1:
            raise ValueError("probs must be nonempty")
        if any(not (-1e-12 <= p <= 1.0 + 1e-12) for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)


def statistical_dimension_2d(cone: Cone2D) -> float:
    """delta(C) = E||Pi_C(Z)||^2 for a planar cone.

    A ray contributes 1/2, a wedge of angle t contributes 1/2 + t/pi (the
    halfplane is the t = pi case), the full plane 2, and the origin 0.
    """
    if cone.kind is ConeKind.POINT:
        return 0.0
    if cone.kind is ConeKind.RAY:
        return 0.5
    if cone.kind is ConeKind.WEDGE:
        return 0.5 + cone.apex_angle / math.pi
    if cone.kind is ConeKind.HALFPLANE:
        return 1.5
    return 2.0


def statistical_dimension_mc(generators, n: int, seed: int = DEFAULT_SEED) -> RiskEstimate:
    """Monte Carlo statistical dimension of cone{g_1, ..., g_m}.

    Averages ||Pi_C(Z)||^2 over standard normal draws using the exact
    nonnegative least-squares cone projection; deterministic in ``seed``.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim != 2 or G.shape[0] < 1:
        raise ValueError("generators must be a nonempty m x d array")
    cfg = MCConfig(n=n, seed=seed)

    def chunk_losses(start, z):
        projected = project_cone_nonneg_batch(G, z)
        yield np.einsum("ij,ij->i", projected, projected)

    return _chunked_estimate(G.shape[1], cfg, chunk_losses)[0]


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
    classification; otherwise pass the tangent cone's ``generators`` to use
    the Monte Carlo statistical dimension.  Either way ``theta`` must be a
    point of ``P``.
    """
    sigma = _sigma(sigma)
    if generators is not None:
        _member_points(P, [theta], "theta")
        return sigma * sigma * statistical_dimension_mc(generators, n, seed).mean
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
    x = float(x)
    if not (math.isfinite(x) and 0.0 < x < 1.0 / c):
        raise ValueError(f"x must lie in (0, 1/c), got {x!r}")
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
    x = np.array(x_grid, dtype=float)
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
    set's estimated sup-risk exceeds the larger set's by more than
    ``REVERSAL_STDERR_FACTOR`` combined standard errors, or None.  The other
    tuples are columns over ``sigma_grid``: each set's sup-risk, the largest
    Monte Carlo risk over its vertices plus ``edge_points`` interior points
    per edge, and that candidate's standard error.
    """

    reversal_sigma: float | None
    sigma_grid: tuple[float, ...]
    sup_small: tuple[float, ...]
    stderr_small: tuple[float, ...]
    sup_large: tuple[float, ...]
    stderr_large: tuple[float, ...]
    edge_points: int


def _sup_candidates(P: ConvexPolytope, edge_points: int) -> np.ndarray:
    v = P.vertices
    k = P.n_vertices
    parts = [v]
    if k >= 2 and edge_points > 0:
        t = np.linspace(0.0, 1.0, edge_points + 2)[1:-1]
        edges = [(i, (i + 1) % k) for i in range(k)] if k >= 3 else [(0, 1)]
        for i, j in edges:
            parts.append(v[i] + t[:, None] * (v[j] - v[i]))
    return np.vstack(parts)


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

    The scan is one Monte Carlo pass: each chunk's normals are drawn once
    and shared by every candidate of both sets at every sigma (common random
    numbers), and each estimate is bitwise the ``mc_risks`` one at its sigma.
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
    small_set = g_small.theta_x_polytope()
    large_set = g_large.theta_x_polytope()
    cand_small = _member_points(small_set, _sup_candidates(small_set, edge_points))
    cand_large = _member_points(large_set, _sup_candidates(large_set, edge_points))

    def chunk_losses(start, z):
        for sigma in sigmas:
            yield from _losses(small_set, cand_small, sigma, start, z)
            yield from _losses(large_set, cand_large, sigma, start, z)

    estimates = iter(_chunked_estimate(2, cfg, chunk_losses))
    rows = []
    reversal_sigma = None
    for sigma in sigmas:
        # the first candidate with the largest mean, and its standard error
        small = max(islice(estimates, len(cand_small)), key=lambda e: e.mean)
        large = max(islice(estimates, len(cand_large)), key=lambda e: e.mean)
        # the four columns of ReversalScan, in field order
        rows.append((small.mean, small.stderr, large.mean, large.stderr))
        margin = REVERSAL_STDERR_FACTOR * math.hypot(small.stderr, large.stderr)
        if reversal_sigma is None and small.mean - large.mean > margin:
            reversal_sigma = sigma
    return ReversalScan(reversal_sigma, tuple(sigmas), *zip(*rows), edge_points)
