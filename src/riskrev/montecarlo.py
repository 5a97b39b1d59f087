"""Seeded, reproducibly parallel Monte Carlo risk estimation.

Sampling is split into fixed-size chunks.  Chunk ``j`` draws from its own
counter-based stream keyed by ``(seed, j)``, normals come from the inverse
CDF of those uniforms (one uniform per variate, so stream consumption never
depends on the values drawn), and per-chunk moments are merged in chunk
order with a pairwise-stable update.  A result is therefore bitwise
identical for a given ``(seed, n, chunk)`` no matter how many worker
threads execute the chunks.  The ``RISKREV_THREADS`` environment variable
sets the worker count; unset, it is 1 and the chunks run serially.

Within a chunk, one loss loop serves every polytope, one block of samples
at a time, with the projector that ``geometry`` picks for it.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special

from .exact_risk import RiskQuery, _sigma
from .geometry import ConvexPolytope, ProjectionError, _block_projector, _member_points

DEFAULT_SEED = 20240613
DEFAULT_CHUNK = 1 << 18

# asymptotic Kolmogorov critical value at the 0.1% level: P(K > 1.95) ~ 0.001
KS_CRITICAL_0P1 = 1.95

_UINT64_MASK = (1 << 64) - 1
# smallest uniform fed to the inverse CDF; rng.random() can return exactly 0
_U_FLOOR = 2.0 ** -53


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate of E||thetahat - theta*||^2 with its standard error."""

    mean: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not (math.isfinite(self.mean) and self.stderr >= 0.0):
            raise ValueError("mean must be finite and stderr nonnegative")


def _integer(name: str, value) -> int:
    """``value`` as an int, if it is integral and not a bool; else ValueError naming ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class MCConfig:
    """Sample count, stream seed, and chunk size of one Monte Carlo run.

    The chunk size is part of the reproducibility contract: changing it
    changes which substream produces which sample, hence the result.
    """

    n: int
    seed: int = DEFAULT_SEED
    chunk: int = DEFAULT_CHUNK

    def __post_init__(self):
        for name in ("n", "seed", "chunk"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 1 or self.chunk < 1:
            raise ValueError("n and chunk must be at least 1")


def _worker_count() -> int:
    raw = os.environ.get("RISKREV_THREADS")
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"RISKREV_THREADS must be a positive integer, got {raw!r}") from None
    if count < 1:
        raise ValueError(f"RISKREV_THREADS must be a positive integer, got {raw!r}")
    return count


def _chunk_normals(seed: int, chunk_index: int, m: int, d: int) -> np.ndarray:
    """(m, d) standard normals from the substream keyed by (seed, chunk_index)."""
    key = np.array([seed & _UINT64_MASK, chunk_index], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random((m, d))
    np.maximum(u, _U_FLOOR, out=u)
    return special.ndtri(u)


def _merge_moments(parts):
    """Combine per-chunk (count, mean, M2) into overall moments, in the given order."""
    n_acc, mean_acc, m2_acc = 0, 0.0, 0.0
    for count, mean, m2 in parts:
        total = n_acc + count
        delta = mean - mean_acc
        m2_acc += m2 + delta * delta * (n_acc * count / total)
        mean_acc += delta * (count / total)
        n_acc = total
    return n_acc, mean_acc, m2_acc


def _chunked_estimate(d: int, cfg: MCConfig, chunk_losses) -> list[RiskEstimate]:
    """Deterministic chunked Monte Carlo means of one or more losses.

    ``chunk_losses(chunk_start, Z)`` yields one loss vector per estimate for
    the chunk of normals ``Z``.  Each vector is reduced to its moments, which
    overwrites it, before the next is requested, so all of them may share one
    buffer.  Every estimate sees the same draws (common random numbers), and
    each is bitwise identical to a run of its loss alone.
    """
    n, seed, chunk = cfg.n, cfg.seed, cfg.chunk
    n_chunks = (n + chunk - 1) // chunk

    def run(j: int):
        m = min(chunk, n - j * chunk)
        z = _chunk_normals(seed, j, m, d)
        moments = []
        for loss in chunk_losses(j * chunk, z):
            mean = float(loss.mean())
            loss -= mean
            np.square(loss, out=loss)
            moments.append((m, mean, float(np.sum(loss))))
            # release it before the next is requested, which may start a new loss loop
            del loss
        return moments

    workers = _worker_count()
    if workers == 1 or n_chunks == 1:
        parts = [run(j) for j in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(n_chunks)))
    estimates = []
    for per_chunk in zip(*parts):
        count, mean, m2 = _merge_moments(per_chunk)
        stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
        estimates.append(RiskEstimate(mean=mean, stderr=stderr, n=n, seed=seed))
    return estimates


def _losses(P: ConvexPolytope, thetas: np.ndarray, sigma: float, start: int, z: np.ndarray):
    """Losses ||Pi(theta + sigma z) - theta||^2 of one chunk, one reused vector per theta.

    Rounds as theta + sigma * z, the batch projection and einsum over (m, d)
    rows do on the whole chunk.  A loss above the squared diameter raises.
    """
    diam_sq = P.squared_diameter()
    loss_cap = diam_sq * (1.0 + 1e-9) + 1e-12
    m, d = z.shape
    projector = _block_projector(P, m)
    block = projector.size
    y = np.empty((d, min(m, block)))
    loss = np.empty(m)
    for theta in thetas:
        shift = theta[:, None]
        for first in range(0, m, block):
            rows = slice(first, min(m, first + block))
            u = y[:, : rows.stop - first]
            # coordinate rows, as the projectors take them, one block at a
            # time: whole-chunk rows of sigma * z measured 2 MB more peak memory
            for j in range(d):
                np.multiply(z[rows, j], sigma, out=u[j])
                u[j] += theta[j]
            x = projector.project(u, start + first)
            x -= shift
            np.einsum("ji,ji->i", x, x, out=loss[rows])
        worst = int(np.argmax(loss))
        if loss[worst] > loss_cap:
            raise ProjectionError(
                f"sample {start + worst}: loss {loss[worst]!r} exceeds squared diameter {diam_sq!r}"
            )
        yield loss


def mc_risks(P: ConvexPolytope, thetas, sigma: float, cfg: MCConfig) -> list[RiskEstimate]:
    """Monte Carlo risks at several theta* values that share one draw.

    Returns one estimate per row of ``thetas``, each bitwise identical to
    :func:`mc_risk` at that theta* with the same configuration, while the
    normals of each chunk are drawn only once (common random numbers).
    Samples are projected one block at a time by the projector that
    ``geometry`` picks for ``P``.  A projection failure aborts with the
    failing sample index, and so does a loss above the squared diameter.
    """
    thetas = _member_points(P, thetas)
    sigma = _sigma(sigma)
    return _chunked_estimate(P.dim, cfg, partial(_losses, P, thetas, sigma))


def mc_risk(P: ConvexPolytope, q: RiskQuery, cfg: MCConfig) -> RiskEstimate:
    """Monte Carlo risk of projecting Y = theta* + sigma Z onto ``P``.

    The one-candidate case of :func:`mc_risks`.
    """
    return mc_risks(P, q.theta, q.sigma, cfg)[0]


def _effective_sigma(sigma, n_obs) -> float:
    """sigma / sqrt(n_obs), the noise level of an n_obs-observation average.

    Refuses a bad ``sigma`` as given, and an ``n_obs`` that is not a positive integer.
    """
    sigma = _sigma(sigma)
    n_obs = _integer("n_obs", n_obs)
    if n_obs < 1:
        raise ValueError(f"n_obs must be at least 1, got {n_obs}")
    return sigma / math.sqrt(n_obs)


def sample_unit_sphere(d: int, n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """(n, d) directions uniform on the unit sphere (normalized Gaussians).

    The Gaussians are the normals of chunk 0 of ``seed``'s Monte Carlo
    stream.  A zero draw (every coordinate exactly at the median) has
    probability 2^-53 per coordinate and raises ``ValueError`` naming the
    row, rather than being resampled.
    """
    d = _integer("d", d)
    n = _integer("n", n)
    if d < 1 or n < 1:
        raise ValueError("d and n must be at least 1")
    seed = _integer("seed", seed)
    z = _chunk_normals(seed, 0, n, d)
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"seed {seed} draws a zero vector at row {int(np.argmin(norms))}; use another seed")
    return z / norms[:, None]


def cauchy_cdf(r):
    """Distribution function of the standard Cauchy law, 1/2 + arctan(r)/pi."""
    return 0.5 + np.arctan(r) / math.pi


def _ks_distance(sample: np.ndarray, cdf) -> float:
    """Exact Kolmogorov-Smirnov sup distance of a sample to a continuous CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    f = cdf(x)
    grid = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(grid / n - f), np.max(f - (grid - 1.0) / n)))


@dataclass(frozen=True)
class CauchyRatioReport:
    """KS distances of sphere-coordinate ratios against the standard Cauchy law.

    ``d_full`` uses all ratios u2/u1 for uniform directions (u1, u2) on the
    circle; ``d_cond_first`` conditions on u1 >= 0 and ``d_cond_second`` on
    u2 > 0.  All three laws are standard Cauchy (the tangent map is
    pi-periodic, so either half-circle yields the same distribution), and
    both conditionings are reported so the two equivalent formulations can
    be checked independently.  ``scaled_*`` are the sqrt(sample size)-scaled
    statistics comparable to Kolmogorov critical values such as
    ``KS_CRITICAL_0P1``.
    """

    n: int
    seed: int
    d_full: float
    d_cond_first: float
    d_cond_second: float
    scaled_full: float
    scaled_cond_first: float
    scaled_cond_second: float


def cauchy_ratio_check(n: int, seed: int = DEFAULT_SEED) -> CauchyRatioReport:
    """Compare circle-coordinate ratios to the standard Cauchy distribution."""
    n = _integer("n", n)
    seed = _integer("seed", seed)
    if n < 1000:
        raise ValueError("n must be at least 1000 for a meaningful KS statistic")
    u = sample_unit_sphere(2, n, seed)
    with np.errstate(divide="ignore"):
        ratio = u[:, 1] / u[:, 0]
    first = ratio[u[:, 0] >= 0.0]
    second = ratio[u[:, 1] > 0.0]
    d_full = _ks_distance(ratio, cauchy_cdf)
    d_first = _ks_distance(first, cauchy_cdf)
    d_second = _ks_distance(second, cauchy_cdf)
    return CauchyRatioReport(
        n=n,
        seed=seed,
        d_full=d_full,
        d_cond_first=d_first,
        d_cond_second=d_second,
        scaled_full=d_full * math.sqrt(n),
        scaled_cond_first=d_first * math.sqrt(len(first)),
        scaled_cond_second=d_second * math.sqrt(len(second)),
    )
