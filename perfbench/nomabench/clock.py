"""Reference clock: wall time rescaled by the speed of a fixed kernel.

On a shared host the CPU itself runs faster or slower for seconds to
minutes at a time (the same 25 ms op, timed alone, had 1 s medians from
18 to 30 ms, and its CPU time moved with its wall time).  A fixed kernel
timed next to the ops slows by nearly the same factor.  So while the
clock runs, a SIGALRM handler times the kernel every INTERVAL_S, and an
interval of wall time becomes reference time when multiplied by
REF_KERNEL_S over the median kernel time measured around it.  A reference
second is therefore the time in which the kernel runs 1 / REF_KERNEL_S
times; REF_KERNEL_S is the kernel's usual time on the machine the README
names, so reference and wall time roughly agree there.  The handler runs
the kernel twice and times the second run, so the sample reflects the
machine rather than what the interrupted op left in the caches.  Its time
is counted separately so that callers can take it out of what they time.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
REF_KERNEL_S = 1.15e-3
# Intervals shorter than this are scaled by the samples of a window this
# wide around their midpoint.
MIN_WINDOW_S = 1.0

# ~1 MB of complex arrays: the ops' arrays live in L2/L3 rather than L1,
# and a kernel that stays in L1 missed slowdowns that the ops saw.
_Z = np.linspace(0.1, 3.0, 15_000) + 1j * np.linspace(-40.0, 40.0, 15_000)
_RNG = np.random.default_rng(0)


def kernel() -> float:
    """Fixed work with the workloads' mix: vectorized complex arithmetic
    over ~1 MB, a Python loop over small arrays, random draws with a
    bincount, and plain interpreter work (integers, floats, a dict)."""
    w = np.exp(-_Z) / (1.0 + 0.3 * _Z)
    acc = float(np.cumsum(w).real[-1])
    v = np.zeros(8, dtype=complex)
    for i in range(30):
        v = 0.5 * v + (i % 7)
        acc += abs(v[i % 8])
    idx = _RNG.integers(0, 64, size=1000)
    acc += float(np.bincount(idx, weights=_RNG.random(1000), minlength=64)[3])
    table = {}
    for i in range(400):
        x = (i * 2654435761) % 1000003
        acc += x * 1e-6
        table[x & 63] = acc
    return acc


class ReferenceClock:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0          # handler seconds so far
        self._previous = None

    def _tick(self, signum, frame):
        first = time.perf_counter()
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.spent += end - first

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time over [t0, t1], widened to MIN_WINDOW_S around
        its midpoint when shorter; all samples if the window holds none."""
        if t1 - t0 < MIN_WINDOW_S:
            mid = 0.5 * (t0 + t1)
            t0, t1 = mid - 0.5 * MIN_WINDOW_S, mid + 0.5 * MIN_WINDOW_S
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        window = self.durations[lo:hi] or self.durations
        if not window:
            raise RuntimeError("the reference clock took no samples")
        return statistics.median(window)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        return REF_KERNEL_S / self.kernel_s(t0, t1)
