"""Machine-speed probe, so that timings from a shared machine compare.

On a machine shared with other tenants the same pure-Python work can run
25% slower for minutes at a time and up to twice as slow for seconds; runs
of the same code then differ by more than any regression worth catching.
The probe runs a fixed reference kernel from a SIGALRM handler every
INTERVAL_S, so it also samples the machine inside long windows, and the
benchmark divides each timing by the slowdown measured around it: the
mean kernel time within MARGIN_S of the timed interval over REFERENCE_S.
The machine switches between a quick and a slow state every 50-250 ms, so
the mean, which weighs the two states by their time, is the estimate.
The kernel does not use hibilab, so a faster program reads as faster.  The
handler's own time is subtracted from whatever it interrupted.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
MARGIN_S = 0.1
# Kernel time on the reference machine (2-vCPU x86_64 Xeon VM at 2.1 GHz,
# Python 3.11.7) in its quiet spells; it only sets the scale.
REFERENCE_S = 0.001

# Twelve-variable exponent vectors, the shape of the program's monomials.
_MONOMIALS = tuple(tuple((i * 7 + j * 3) % 3 for j in range(12)) for i in range(40))


def kernel():
    """Fixed pure-Python work like the program's monomial arithmetic: products and lcms."""
    seen = set()
    for a in _MONOMIALS:
        for b in _MONOMIALS[:6]:
            seen.add((tuple(x + y for x, y in zip(a, b)), tuple(max(x, y) for x, y in zip(a, b))))
    return len(seen)


class SpeedProbe:
    """Samples the kernel every INTERVAL_S between enter and exit, unless paused."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame):
        # A collection started by the kernel's allocations would scan the
        # program's objects and tie the kernel's time to the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(took)
        self.spent += took

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean kernel time within MARGIN_S of [t0, t1], over REFERENCE_S."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        near = self.seconds[lo:hi] or self.seconds
        return statistics.fmean(near) / REFERENCE_S if near else 1.0
