"""Host-speed sampling, to take the shared host's drift out of timings.

On a host shared with other machines, the same single-threaded work
runs up to a quarter faster or slower from one minute to the next, and
allocation-heavy Python code is hit hardest.  While a stream runs, a
SIGALRM handler in the same thread times a fixed, allocation-heavy
kernel (Fraction sums and small tuple polynomial products, no glnlab
code) every INTERVAL seconds.  A request's latency is then scaled to the reference
host by REF_KERNEL_S / (mean kernel time in a window around it), after
the kernel time that fell inside the request is taken out.  The raw
wall time of the stream is kept in the run's detail record.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL = 0.05
WINDOW = 0.1
# kernel time on the reference host: 2-core x86-64, Python 3.11.7
REF_KERNEL_S = 0.0006


def kernel():
    """Fraction sums with dict inserts, as in the Hecke layer, and small
    tuple polynomial products mod 16 with set inserts, as in the rings
    layer: the two kinds of work the workloads spend their time on."""
    total = Fraction(0)
    table = {}
    poly = (1, 2, 3)
    seen = set()
    for i in range(1, 80):
        total += Fraction(i % 7, i % 5 + 1)
        table[(i, i % 3)] = total
        out = [0] * 5
        for x in range(3):
            for y in range(3):
                out[x + y] = (out[x + y] + poly[x] * (y + 1)) % 16
        poly = tuple(out[:3])
        seen.add(poly)
    return total


def time_kernel(n=1):
    """(start, seconds) of n kernel runs, with garbage collection paused:
    a collection of the program's heap is not host speed."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(n):
        kernel()
    dt = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return t0, dt


def burst_factor(n=40):
    """REF_KERNEL_S over the mean of n back-to-back kernel runs."""
    return REF_KERNEL_S * n / time_kernel(n)[1]


class HostSpeed:
    """Context manager that samples the kernel's time while it is open."""

    def __init__(self, on_sample=None):
        self.starts = []
        self.seconds = []
        self._on_sample = on_sample  # told each sample's seconds

    def _tick(self, signum, frame):
        t0, dt = time_kernel()
        self.starts.append(t0)
        self.seconds.append(dt)
        if self._on_sample is not None:
            self._on_sample(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _between(self, lo, hi):
        return (bisect.bisect_left(self.starts, lo),
                bisect.bisect_right(self.starts, hi))

    def kernel_time(self, start, end):
        """Seconds the kernel ran inside [start, end]."""
        i, j = self._between(start, end)
        return sum(self.seconds[i:j])

    def factor(self, start, end):
        """REF_KERNEL_S over the mean kernel time near [start, end]."""
        i, j = self._between(start - WINDOW, end + WINDOW)
        near = self.seconds[i:j] or self.seconds
        if not near:
            return 1.0
        return REF_KERNEL_S * len(near) / sum(near)

    def mean_factor(self):
        """REF_KERNEL_S over the mean kernel time of the whole sampling."""
        if not self.seconds:
            return 1.0
        return REF_KERNEL_S * len(self.seconds) / sum(self.seconds)

    def scale(self, spans):
        """Reference-host latencies of requests timed as (start, end)."""
        return [(end - start - self.kernel_time(start, end))
                * self.factor(start, end) for start, end in spans]
