"""Machine-speed calibration for the benchmark's timings.

The CPU speed seen by one process on a shared machine drifts by up to 1.6x
over seconds to minutes (other tenants on the same cores).  Every timing the
benchmark reports is therefore a wall time rescaled to a reference speed:

    reported = wall * REFERENCE_S / kernel

where ``kernel`` is the median wall time of a fixed pure-Python kernel
(exact fraction arithmetic on dicts and tuples, like cfcalc's own work) run
from a timer in the same process just before, during and just after the
timed work.  The kernel does not depend on cfcalc, so a change to the
program cannot move it.  REFERENCE_S is
the kernel's time on an uncontended core of the machine the baselines in
README.md were taken on; it only sets the scale.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005
# the kernel runs every INTERVAL_S of wall time, between or inside calls
INTERVAL_S = 0.25
# kernel runs this close to a call count for its scale
WINDOW_S = 0.6


def kernel() -> int:
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    items = list(p.items())
    out: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in items:
        for (d, e), f in items[:24]:
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return len(out)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibrator:
    """Runs the kernel every INTERVAL_S of wall time from a timer signal, so
    that long calls are sampled while they run, and rescales calls."""

    def __init__(self):
        kernel()  # first run pays for allocation warm-up
        self.at: list[float] = []  # end time of each kernel run
        self.took: list[float] = []
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def sample(self) -> None:
        took = kernel_seconds()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def timing(self, start: float, end: float) -> tuple[float, float]:
        """(wall, calibrated) seconds of work between `start` and `end`.
        Kernel runs inside the interval are taken out of the wall time; the
        scale uses the median kernel time from WINDOW_S before `start` to
        WINDOW_S after `end` (a single run can be hit by a spike)."""
        inside = self.took[bisect.bisect_right(self.at, start):
                           bisect.bisect_right(self.at, end)]
        near = self.took[bisect.bisect_left(self.at, start - WINDOW_S):
                         bisect.bisect_right(self.at, end + WINDOW_S)]
        wall = end - start - sum(inside)
        return wall, wall * REFERENCE_S / statistics.median(near)
