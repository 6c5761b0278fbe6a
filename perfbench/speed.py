"""Timing scaled to a fixed host speed.

On a shared virtual machine the same pure-Python work takes anywhere from
1x to 2x its uncontended time, drifting over seconds, so raw wall-clock
medians of identical runs disagree by 20% or more.  A ``SpeedSampler``
interrupts the program every INTERVAL_S (SIGALRM) and times a fixed
integer kernel, the same list-of-ints loops coxlat runs but independent of
it.  The time of any interval is then

    (wall - time spent in the sampler) * mean(REFERENCE_S / kernel time)

over the samples inside it: the seconds the interval would have taken at
the speed where the kernel takes REFERENCE_S, about the uncontended
speed of a 2-vCPU Xeon virtual machine running Python 3.11.  Scaling cancels host
contention, not a change in the program, which shows at full size.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 350e-6
INTERVAL_S = 0.02

_A = [[(3 * i + 5 * j) % 7 - 3 for j in range(16)] for i in range(16)]
_AT = [list(col) for col in zip(*_A)]


def kernel():
    """A 16x16 integer matrix product with coxlat's own idiom."""
    return [[sum(x * y for x, y in zip(row, col)) for col in _AT] for row in _A]


class SpeedSampler:
    """Samples the kernel time while active; scales intervals afterwards."""

    def __init__(self):
        self.starts, self.costs = [], []
        self._smooth = None
        self._active = False

    def _sample(self, signum, frame):
        if self._active:
            t0 = time.perf_counter()
            kernel()
            self.costs.append(time.perf_counter() - t0)
            self.starts.append(t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        # each factor is the median of five neighbouring samples, so one
        # interrupted kernel does not skew an interval
        c = self.costs
        self._smooth = [REFERENCE_S / statistics.median(c[max(0, k - 2):k + 3])
                        for k in range(len(c))]
        return False

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / kernel time over the samples in [start, end),
        or the nearest sample's if there is none."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi > lo:
            return statistics.fmean(self._smooth[lo:hi])
        k = min(lo, len(self.starts) - 1)
        if k > 0 and start - self.starts[k - 1] < self.starts[k] - end:
            k -= 1
        return self._smooth[k]

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end) would take at the reference speed, sampler time excluded."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return (end - start - sum(self.costs[lo:hi])) * self.factor(start, end)
