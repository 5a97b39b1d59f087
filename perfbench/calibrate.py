"""Machine-speed calibration for timings on a shared, noisy host.

On a shared virtual machine the same code can run at very different speeds
from one few-second stretch to the next, because other tenants contend for
the physical cores and memory.  A pass time alone then says more about the
host than about riskrev.  ``SpeedSampler`` measures the host's speed around
and during passes by timing a fixed reference kernel, half interpreted
Python and half numpy on arrays larger than the L2 cache, like the
workloads.  The kernel is part of the benchmark and never of riskrev, so a
change to riskrev cannot move it.

The kernel must not run alongside riskrev, or riskrev's own load would
count as a slow host and be divided out.  So the sampler times it once
before the first pass and once after every pass, and during a pass only
from a SIGALRM handler every ``INTERVAL_S`` seconds while the process has no
thread but the main one.  The handler runs on the main thread between
bytecodes, so riskrev is then paused.  When riskrev runs worker threads the
in-pass samples are skipped and counted, and the pass is calibrated by the
samples just before and after it alone.

A sample's slowdown is the mean of its two halves' times over their
nominal times (``NOMINAL_PY_S`` and ``NOMINAL_NP_S``, about the median on a
2-vCPU Intel Xeon VM).  A pass's calibrated time is its own time, with the
in-pass samples' time removed, times the mean speed (inverse slowdown) of
the samples taken during it and just before and after it: the time the
pass would take at nominal speed.
"""

import math
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.25
NOMINAL_PY_S = 0.0040
NOMINAL_NP_S = 0.0031

_XS = [1e-4 * i for i in range(25000)]
_RNG = np.random.default_rng(20240613)
_A = _RNG.standard_normal(1 << 17)
_B = _RNG.standard_normal(1 << 17)


def _python_kernel():
    total = 0.0
    for x in _XS:
        total += math.erf(x) * math.exp(-x)
    return total


# preallocated, so that sampling adds nothing to the process's peak memory
_T = np.empty_like(_A)
_D = np.empty_like(_A)
_E = np.empty_like(_A)
_BETTER = np.empty(_A.shape, dtype=bool)


def _numpy_kernel():
    np.multiply(_A, 0.3, out=_T)
    np.multiply(_B, 0.7, out=_D)
    np.add(_T, _D, out=_T)
    np.divide(_T, 1.1, out=_T)
    np.clip(_T, 0.0, 1.0, out=_T)
    np.subtract(_A, _T, out=_D)
    np.square(_D, out=_D)
    np.subtract(_B, _T, out=_E)
    np.square(_E, out=_E)
    np.add(_D, _E, out=_D)
    np.less(_D, 0.5, out=_BETTER)
    np.copyto(_T, _D, where=_BETTER)
    return _T


def slowdown():
    """Time the reference kernel once; 1.0 means nominal speed."""
    start = time.perf_counter()
    _python_kernel()
    middle = time.perf_counter()
    _numpy_kernel()
    end = time.perf_counter()
    return 0.5 * ((middle - start) / NOMINAL_PY_S + (end - middle) / NOMINAL_NP_S)


def timed_setup(build):
    """(result, seconds, calibrated seconds) of ``build()``, calibrated by samples just before and after it."""
    slowdown()  # the first call in a process runs cold and reads about a third slow
    before = slowdown()
    start = time.perf_counter()
    result = build()
    seconds = time.perf_counter() - start
    after = slowdown()
    return result, seconds, seconds * 0.5 * (1.0 / before + 1.0 / after)


@dataclass
class Sample:
    at: float
    slowdown: float
    cost_s: float


class SpeedSampler:
    """Samples the host's slowdown between passes and, while riskrev runs no threads, during them."""

    def __init__(self):
        self.samples = []
        self.skipped = 0
        self._previous = None

    def sample(self):
        """Time the reference kernel now; call it only while riskrev is not running."""
        start = time.perf_counter()
        value = slowdown()
        self.samples.append(Sample(start, value, time.perf_counter() - start))

    def _on_alarm(self, signum, frame):
        if threading.active_count() == 1:
            self.sample()
        else:
            self.skipped += 1

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, start, end):
        """(pass time without sampling, calibrated pass time) of the interval [start, end]."""
        inside = [s for s in self.samples if start <= s.at < end]
        own = end - start - sum(s.cost_s for s in inside)
        before = [s for s in self.samples if s.at < start][-1:]
        after = [s for s in self.samples if s.at >= end][:1]
        used = before + inside + after
        return own, own * sum(1.0 / s.slowdown for s in used) / len(used)
