"""Seeded, reproducibly parallel Monte Carlo risk estimation.

Sampling is split into fixed-size chunks.  Chunk ``j`` draws from its own
counter-based stream keyed by ``(seed, j)``, normals come from the inverse
CDF of those uniforms (one uniform per variate, so stream consumption never
depends on the values drawn), and per-chunk moments are merged in chunk
order with a pairwise-stable update.  Chunks run one after another.
Within a chunk the normals are drawn in cache-sized slabs, each slab from
its own offset of the chunk's stream, by worker threads and by the calling
thread together, so a result is bitwise identical for a given
``(seed, n, chunk)`` whatever the thread count and however the slabs fall
on the threads.  The ``RISKREV_THREADS`` environment variable sets the
number of drawing threads, the caller included; unset, it is the number of
CPUs the process may use.

Every Monte Carlo mean of a projection loss ||Pi(theta* + sigma Z) - theta*||^2
is a job of one kernel, :func:`_chunked_estimate`: polytope risks, the
reversal scan's winner checks and the statistical dimension of a cone.
Within a chunk, one loss loop runs each job one block of samples at a
time, and the loss adds the squared coordinate rows left to right, so no
projector's memory layout reaches a seeded output.  The first job projects
each block as soon as the slabs under its rows are drawn, so projection
overlaps the draw; the caller draws the next undrawn slab itself whenever
it would otherwise wait.
"""

import contextlib
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exact_risk import RiskQuery, _sigma
from .geometry import (
    ConvexPolytope, ProjectionError, _block_projector, _integer, _left_sum, _member_points, _real, _real_array
)

DEFAULT_SEED = 20240613
DEFAULT_CHUNK = 1 << 18

# asymptotic Kolmogorov critical value at the 0.1% level: P(K > 1.95) ~ 0.001
KS_CRITICAL_0P1 = 1.95

_UINT64_MASK = (1 << 64) - 1
# doubles per slab of a chunk's draw (256 KB, so the uniforms, the floor and
# the inverse CDF stay in cache); a multiple of Philox's 4 doubles per counter step
_DRAW_SLAB = 1 << 15
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
        mean, stderr = _real(self.mean), _real(self.stderr)
        if not math.isfinite(mean):
            raise ValueError(f"mean must be a finite real, got {self.mean!r}")
        if not stderr >= 0.0:
            raise ValueError(f"stderr must be a nonnegative real, got {self.stderr!r}")
        n, seed = _integer("n", self.n), _integer("seed", self.seed)
        if n < 1:
            raise ValueError("n must be at least 1")
        for name, value in (("mean", mean), ("stderr", stderr), ("n", n), ("seed", seed)):
            object.__setattr__(self, name, value)


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
    """Threads that draw a chunk, the caller included: ``RISKREV_THREADS``, or the usable CPUs if it is unset.

    A chunk of k slabs starts ``min(_worker_count(), k) - 1`` worker threads
    beside the calling thread, which also draws while its projection waits,
    so a one-slab chunk starts none.  The thread count does not change a
    bit of any result.  Any value but a positive decimal integer raises
    ``ValueError`` naming the variable.
    """
    raw = os.environ.get("RISKREV_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError(f"RISKREV_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


class _SlabDraw:
    """The (m, d) normals ``z`` of one chunk, drawn in slabs by whichever thread takes each slab.

    The m * d values are drawn in slabs of ``_DRAW_SLAB``, each by its own
    Philox started at the slab's counter offset, so every slab is the slice
    of the chunk's one stream that a single whole-chunk draw would give.
    Slabs are handed out in order from a shared counter; :meth:`wait`
    returns once the leading rows are drawn.  Worker threads run
    :meth:`work`; see :func:`_chunk_draw`.
    """

    def __init__(self, seed: int, chunk_index: int, m: int, d: int):
        self._key = np.array([seed & _UINT64_MASK, chunk_index], dtype=np.uint64)
        self._flat = np.empty(m * d)
        self.z = self._flat.reshape(m, d)
        self._slab = _DRAW_SLAB
        self.slabs = -(-m * d // self._slab)
        self._cond = threading.Condition()
        self._next = 0  # the first slab not yet handed out
        self._done = [False] * self.slabs
        self._ready = 0  # the leading slabs that are drawn
        self._error = None

    def _fill(self, i: int):
        first = i * self._slab
        slab = self._flat[first : first + self._slab]
        np.random.Generator(np.random.Philox(key=self._key, counter=[first // 4, 0, 0, 0])).random(out=slab)
        np.maximum(slab, _U_FLOOR, out=slab)
        special.ndtri(slab, out=slab)

    def _take(self):
        """The next slab to draw, or None when none is left; call it holding the lock."""
        if self._next == self.slabs:
            return None
        self._next += 1
        return self._next - 1

    def _draw(self, i: int):
        self._fill(i)
        with self._cond:
            self._done[i] = True
            while self._ready < self.slabs and self._done[self._ready]:
                self._ready += 1
            self._cond.notify()

    def work(self):
        """Draw slabs until none is left; an error goes to the caller's :meth:`wait`."""
        try:
            while True:
                with self._cond:
                    i = self._take()
                if i is None:
                    return
                self._draw(i)
        except Exception as err:
            with self._cond:
                self._error = err
                self._next = self.slabs
                self._cond.notify()

    def stop(self):
        """Hand out no more slabs."""
        with self._cond:
            self._next = self.slabs

    def wait(self, rows: int):
        """Return once rows [0, rows) of ``z`` are drawn, drawing the next undrawn slab while they are not.

        Re-raises a worker's error.
        """
        needed = -(-rows * self.z.shape[1] // self._slab)
        while True:
            with self._cond:
                while True:
                    if self._error is not None:
                        raise self._error
                    if self._ready >= needed:
                        return
                    i = self._take()
                    if i is not None:
                        break
                    self._cond.wait()
            self._draw(i)


@contextlib.contextmanager
def _chunk_draw(seed: int, chunk_index: int, m: int, d: int):
    """Start drawing the (m, d) normals of the substream keyed by (seed, chunk_index).

    Yields a :class:`_SlabDraw` that ``min(_worker_count(), slabs) - 1``
    worker threads fill while the caller reads it through ``wait``.
    Leaving the block, on an error too, stops handing out slabs and joins
    the workers, so no thread outlives it.
    """
    draw = _SlabDraw(seed, chunk_index, m, d)
    workers = []
    try:
        for _ in range(min(_worker_count(), draw.slabs) - 1):
            worker = threading.Thread(target=draw.work, name="riskrev-draw")
            worker.start()
            workers.append(worker)
        yield draw
    finally:
        draw.stop()
        for worker in workers:
            worker.join()


def _chunk_normals(seed: int, chunk_index: int, m: int, d: int) -> np.ndarray:
    """(m, d) standard normals from the substream keyed by (seed, chunk_index): the whole of one :func:`_chunk_draw`."""
    with _chunk_draw(seed, chunk_index, m, d) as draw:
        draw.wait(m)
    return draw.z


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


def _chunked_estimate(d: int, cfg: MCConfig, jobs) -> list[RiskEstimate]:
    """Deterministic chunked Monte Carlo means of ||Pi(theta + sigma z) - theta||^2, one per job.

    Each job is ``(projector, theta, sigma, diam_sq)``: a block projector
    from ``geometry``, a d-vector theta, a noise level and the squared
    diameter the loss may not exceed (``math.inf`` for a cone).  Every job
    sees the same draws (common random numbers), and each estimate is
    bitwise identical to a run of its job alone.
    """
    n, seed, chunk = cfg.n, cfg.seed, cfg.chunk
    parts = []
    for start in range(0, n, chunk):
        # only the draw holds the normals, so they go before the next chunk's are drawn
        with _chunk_draw(seed, start // chunk, min(chunk, n - start), d) as draw:
            parts.append(_chunk_moments(draw, start, jobs))
    estimates = []
    for per_chunk in zip(*parts):
        count, mean, m2 = _merge_moments(per_chunk)
        stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
        estimates.append(RiskEstimate(mean=mean, stderr=stderr, n=n, seed=seed))
    return estimates


def _chunk_moments(draw: _SlabDraw, start: int, jobs) -> list[tuple[int, float, float]]:
    """(count, mean, M2) of each job's losses over the (m, d) chunk of normals ``draw.z``.

    One block of samples at a time, in the projectors' coordinate rows:
    y = sigma z + theta, x = Pi(y) - theta, and the loss sums x_j^2 over the
    coordinates left to right, so its bits do not depend on the layout of
    the projector's result.  Each block waits for its rows of the draw, so
    the first job projects while later slabs are drawn.  A loss above the
    squared diameter raises.
    """
    z = draw.z
    m, d = z.shape
    loss = np.empty(m)
    moments = []
    for projector, theta, sigma, diam_sq in jobs:
        block = min(m, projector.size)
        y, tmp = np.empty((d, block)), np.empty(block)
        shift = theta[:, None]
        for first in range(0, m, block):
            rows = slice(first, min(m, first + block))
            draw.wait(rows.stop)
            u = y[:, : rows.stop - first]
            for j in range(d):
                np.multiply(z[rows, j], sigma, out=u[j])
                u[j] += theta[j]
            x = projector.project(u, start + first)
            x -= shift
            _left_sum(zip(x, x), loss[rows], tmp[: rows.stop - first])
        worst = int(np.argmax(loss))
        if loss[worst] > diam_sq * (1.0 + 1e-9) + 1e-12:
            raise ProjectionError(
                f"sample {start + worst}: loss {loss[worst]!r} exceeds squared diameter {diam_sq!r}"
            )
        mean = float(loss.mean())
        loss -= mean
        np.square(loss, out=loss)
        moments.append((m, mean, float(np.sum(loss))))
    return moments


def mc_risks(P: ConvexPolytope, thetas, sigma: float, cfg: MCConfig) -> list[RiskEstimate]:
    """Monte Carlo risks at several theta* values that share one draw.

    Returns one estimate per row of ``thetas``, each bitwise identical to
    :func:`mc_risk` at that theta* with the same configuration, while the
    normals of each chunk are drawn only once (common random numbers).
    Samples are projected one block at a time by the projector that
    ``geometry`` picks for ``P``, shared by every theta*.  A projection
    failure aborts with the failing sample index, and so does a loss above
    the squared diameter.
    """
    thetas = _member_points(P, thetas)
    sigma = _sigma(sigma)
    projector = _block_projector(P, min(cfg.n, cfg.chunk))
    diam_sq = P.squared_diameter()
    return _chunked_estimate(P.dim, cfg, [(projector, theta, sigma, diam_sq) for theta in thetas])


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
    return 0.5 + np.arctan(_real_array(r, "r")) / math.pi


def _ks_distance(sample: np.ndarray, cdf) -> float:
    """Exact Kolmogorov-Smirnov sup distance of a sample to a continuous CDF."""
    x = np.sort(sample)
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
