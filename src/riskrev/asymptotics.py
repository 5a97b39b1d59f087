"""Noise-limit behavior of the projection estimator.

As sigma -> 0 the risk behaves like sigma^2 times the statistical dimension
of the tangent cone at theta*.  As sigma -> infinity the estimator lands on
the vertex exposed by the noise direction, so the risk converges to
sum_i p_i ||v_i - theta*||^2 with p_i the normal-cone arc fractions.  This
module computes both regimes analytically in the plane and by Monte Carlo in
general, evaluates worst-case (sup over theta*) limiting risks and their
envelope over the movable-vertex triangle family, and searches a noise grid
for a finite-sigma worst-case risk reversal between nested sets.

The reversal scan estimates each set's sup-risk as the largest Monte Carlo
mean over a candidate grid of theta* values, and projects only the
candidates that could still be the largest: the loss is Lipschitz in theta*
sample by sample, so the computed candidates bound every other one on the
same draws, and a candidate whose bound is below the best mean so far is
never computed.  The result is bitwise that of computing every candidate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exact_risk import _sigma, _sigmas
from .geometry import (
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    _edge_chain,
    _generators,
    _integer,
    _member_points,
    _points,
    _real,
    _real_array,
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
    _losses,
    sample_unit_sphere,
)

# number of interior points per polytope edge in the sup-risk candidate grid
DEFAULT_EDGE_POINTS = 32

# separation, in combined standard errors, required to declare a reversal
REVERSAL_STDERR_FACTOR = 4.0

# the per-sample rounding allowance is sqrt(_ALLOWANCE_C * eps) * R; see _rounding_allowance
_ALLOWANCE_C = 128.0

# samples per block of the sqrt(loss) sums: a scratch block of the chunk's
# size measured about 1 MB more peak memory on the reversal benchmark
_ROOT_BLOCK = 1 << 12


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
    nonnegative least-squares cone projection; deterministic in ``seed``.
    """
    G = _generators(generators)
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
    """The vertices, then ``edge_points`` evenly spaced interior points of each edge of :func:`_edge_chain`."""
    v = P.vertices
    t = np.linspace(0.0, 1.0, edge_points + 2)[1:-1, None]
    return np.vstack([v, *(v[i] + t * (v[j] - v[i]) for i, j in _edge_chain(P.n_vertices))])


def _rounding_allowance(P: ConvexPolytope, candidates: np.ndarray, sigma: float, z_norm: float) -> float:
    """A bound e on |sqrt(loss) - ||r||| for every sample of every candidate.

    Here loss is the squared error as ``_losses`` computes it at theta and
    r = Pi(theta + w) - theta its exact value, w being the rounded sigma z
    that all candidates share; ``z_norm`` is the largest row norm of the
    draw.  e = (sqrt(c eps) + 4 eps kappa) R, with eps = 2^-52, c = 128,
    R = max ||theta|| + sigma z_norm + 1 over ``candidates`` (which hold
    the vertices), and kappa = 1 / min(sin(alpha / 2), sin(alpha)) over
    the interior angles alpha of a polygon (0 for a segment or a point).

    Every point, offset and distance the kernel handles is at most 2R long.
    Its feet v + t e and squared distances carry O(eps R) and relative
    3 eps / 2 rounding, so the foot q of the edge it picks is within
    O(eps R) of a point q' of P with ||y - q'||^2 <= ||y - p||^2 + 74 eps R^2,
    p being the projection of its input y.  For a convex set
    ||y - q'||^2 >= ||y - p||^2 + ||p - q'||^2, so a near-tie moves the foot
    by at most sqrt(74 eps) R; c = 128 leaves room for the O(eps R) terms
    (rounding y, the feet and the loss).  A point whose inside test rounds
    the wrong way lies within 4 eps R of each edge line it is on the wrong
    side of, hence within 4 eps R kappa of the polygon's boundary, which
    the kappa term covers.
    """
    eps = np.finfo(float).eps
    kappa = 0.0
    v = P.vertices
    if len(v) >= 3:
        before, after = np.roll(v, 1, axis=0) - v, np.roll(v, -1, axis=0) - v
        cross = np.abs(before[:, 0] * after[:, 1] - before[:, 1] * after[:, 0])
        alpha = np.arctan2(cross, np.einsum("ij,ij->i", before, after))
        kappa = 1.0 / float(np.min(np.minimum(np.sin(alpha / 2.0), np.sin(alpha))))
    radius = float(np.max(np.linalg.norm(candidates, axis=1))) + sigma * z_norm + 1.0
    return (math.sqrt(_ALLOWANCE_C * eps) + 4.0 * eps * kappa) * radius


class _SupSearch:
    """One set's sup-risk at one sigma: the candidates computed so far and the edge intervals still open.

    Candidates are the rows of ``_sup_candidates``.  Level 0 computes the
    vertices.  Each edge is a chain of candidate indices, vertex to vertex,
    and an open interval of a chain lies between two computed candidates.
    After each level, :meth:`refine` closes every open interval whose
    interior candidates all have a bound below the best mean, and asks the
    next level to compute the middle candidate of each other one.
    """

    def __init__(self, P: ConvexPolytope, candidates: np.ndarray, edge_points: int, sigma: float):
        self.P, self.candidates, self.sigma = P, candidates, sigma
        k = P.n_vertices
        self.estimates: dict[int, RiskEstimate] = {}
        self.root_means: dict[int, float] = {}
        self.todo = list(range(k))
        self.open = [
            ([i, *range(k + e * edge_points, k + (e + 1) * edge_points), j], 0, edge_points + 1)
            for e, (i, j) in enumerate(_edge_chain(k))
        ]

    def best(self) -> RiskEstimate:
        """The first computed candidate, in candidate order, with the largest mean."""
        return max((self.estimates[i] for i in sorted(self.estimates)), key=lambda e: e.mean)

    def bounds(self, z_norm: float) -> np.ndarray:
        """Per-candidate upper bounds on the mean loss, from the computed candidates.

        Per sample sqrt(loss_k) <= sqrt(loss_j) + h_jk + 2e, with h_jk =
        ||theta_k - theta_j||, since r(theta) = Pi(theta + w) - theta =
        w - (I - Pi)(theta + w) and I - Pi is nonexpansive; squaring and
        averaging gives mean_k <= m_j + 2 (h_jk + 2e) A_j + (h_jk + 2e)^2,
        A_j being the mean of sqrt(loss_j).  The bound is the minimum over j.
        """
        done = sorted(self.estimates)
        means = np.array([self.estimates[j].mean for j in done])
        roots = np.array([self.root_means[j] for j in done])
        gap = np.linalg.norm(self.candidates[:, None, :] - self.candidates[done][None, :, :], axis=2)
        gap += 2.0 * _rounding_allowance(self.P, self.candidates, self.sigma, z_norm)
        return np.min(means + 2.0 * gap * roots + gap * gap, axis=1)

    def refine(self, z_norm: float, slack: float) -> None:
        """Close the intervals that cannot hold the maximum; queue the middle of the others.

        ``slack`` is the relative slack on both sides of each test.
        """
        below = self.bounds(z_norm) * (1.0 + slack) < self.best().mean * (1.0 - slack)
        self.todo, still_open = [], []
        for chain, lo, hi in self.open:
            if below[chain[lo + 1 : hi]].all():
                continue
            mid = (lo + hi) // 2
            self.todo.append(chain[mid])
            still_open += [(chain, a, b) for a, b in ((lo, mid), (mid, hi)) if b - a >= 2]
        self.open = still_open


def _root_sum(loss: np.ndarray, scratch: np.ndarray) -> float:
    """sum(sqrt(loss)), one block of ``scratch``'s size at a time, so no temporary is the size of ``loss``."""
    total = 0.0
    for first in range(0, len(loss), len(scratch)):
        part = loss[first : first + len(scratch)]
        total += float(np.sum(np.sqrt(part, out=scratch[: len(part)])))
    return total


def _scan_level(cfg: MCConfig, searches: list[_SupSearch]) -> float:
    """Compute every search's queued candidates in one Monte Carlo pass; return the draw's largest row norm.

    Each chunk is drawn once and shared by all of them.  The sum of
    sqrt(loss) of each estimate is taken per chunk, before the moment
    reduction overwrites the loss, and summed in chunk order.
    """
    per_chunk = []
    queued = [(s, s.todo) for s in searches if s.todo]

    def chunk_losses(start, z):
        scratch = np.empty(min(len(z), _ROOT_BLOCK))
        sums = []
        per_chunk.append((float(np.max(np.einsum("ij,ij->i", z, z))), sums))
        for s, todo in queued:
            for loss in _losses(s.P, s.candidates[todo], s.sigma, start, z):
                sums.append(_root_sum(loss, scratch))
                yield loss
                # as _chunked_estimate does, so the next loss loop can reuse its memory
                del loss

    estimates = _chunked_estimate(2, cfg, chunk_losses)
    # each estimate's per-chunk sums, in chunk order
    root_sums = zip(*(sums for _, sums in per_chunk))
    slots = ((s, i) for s, todo in queued for i in todo)
    for (s, i), estimate, sums in zip(slots, estimates, root_sums):
        s.estimates[i] = estimate
        s.root_means[i] = sum(sums) / cfg.n
    return math.sqrt(max(z_sq for z_sq, _ in per_chunk))


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

    Each sup is searched level by level (see :class:`_SupSearch`): level 0
    computes the vertices of both sets at every sigma, and each later level
    the middle candidate of every edge interval that the Lipschitz bound of
    :meth:`_SupSearch.bounds` cannot close.  A level is one Monte Carlo
    pass, in which each chunk's normals are drawn once and shared by every
    candidate of that level (common random numbers), so there are at most
    1 + ceil(log2(edge_points + 1)) passes.  Each computed estimate is
    bitwise the ``mc_risks`` one at its sigma, and a candidate is left out
    only if its bound, and so its mean, is below the best mean computed,
    so the columns are bitwise those of computing every candidate.  The
    bound's rounding allowance (see :func:`_rounding_allowance`) grows
    with sigma, and from about sigma = 1e5 on no interval closes.
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
    # above the rounding of the means a pruning test compares: each sum
    # chains at most n_chunks + chunk / _ROOT_BLOCK partial sums, and 1e-12
    # covers numpy's pairwise sums and the few operations of a bound
    n_chunks = (cfg.n + cfg.chunk - 1) // cfg.chunk
    slack = 1e-12 + 4.0 * np.finfo(float).eps * (n_chunks + cfg.chunk / _ROOT_BLOCK)
    sets = []
    for g in (g_small, g_large):
        P = g.theta_x_polytope()
        sets.append((P, _member_points(P, _sup_candidates(P, edge_points))))
    # sigma-major, the smaller set first at each sigma
    searches = [_SupSearch(P, candidates, edge_points, sigma) for sigma in sigmas for P, candidates in sets]
    while any(s.todo for s in searches):
        z_norm = _scan_level(cfg, searches)
        for s in searches:
            s.refine(z_norm, slack)
    rows = []
    reversal_sigma = None
    for sigma, small, large in zip(sigmas, searches[::2], searches[1::2]):
        small, large = small.best(), large.best()
        # the four columns of ReversalScan, in field order
        rows.append((small.mean, small.stderr, large.mean, large.stderr))
        margin = REVERSAL_STDERR_FACTOR * math.hypot(small.stderr, large.stderr)
        if reversal_sigma is None and small.mean - large.mean > margin:
            reversal_sigma = sigma
    return ReversalScan(reversal_sigma, tuple(sigmas), *zip(*rows), edge_points)
