"""Speed gauge: rescales wall times to a reference machine speed.

A shared machine changes speed by up to 2x within seconds (other tenants'
load on the same cores and caches), and no number of passes in a run of a
few dozen seconds averages that away.  So while a pass runs, a timer signal
interrupts it every PERIOD_S and times a fixed pure-Python kernel of about a
millisecond.  Each job's wall time, minus the time spent in those
interruptions, is then rescaled by the kernel times sampled during the job
to the speed at which the kernel takes REFERENCE_S.  The kernel uses no
divlab code, so at any one machine speed the rescaled time is the wall time
times a constant.  The interruptions take about 1% of a pass; in traced
passes they fall inside whichever span is open.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.1
REFERENCE_S = 0.0015
_DATA = tuple(range(0, 350_000, 97))
_TABLE = frozenset(range(0, 6_000_000, 97))  # a 2 MB hash table


def kernel_seconds() -> float:
    """Interpreter-bound work on a small tuple, then a walk over a large hash
    table, so that both slowed-down cores and contended caches show.  The
    collector is off so that a divlab heap of any size cannot add its
    collections to the kernel's time."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for x in _DATA:
            total += x * x % 7
        total += len({x & 4095 for x in _DATA})
        sorted(_DATA, key=lambda x: x % 1009)
        tuple(_TABLE)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def settle(runs: int = 5) -> float:
    """Median kernel time over a few back-to-back runs."""
    return statistics.median(kernel_seconds() for _ in range(runs))


class Gauge:
    """Samples the kernel on SIGALRM while running; use only in the main thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel seconds)

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), kernel_seconds()))

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done between two perf_counter readings.

        A job shorter than the sampling period is rescaled by the samples
        nearest to it.
        """
        inside = [k for t, k in self.samples if start <= t <= end]
        near = inside or [k for t, k in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        speeds = near or [k for _, k in self.samples] or [settle()]
        busy = end - start - sum(inside)
        return busy * REFERENCE_S * statistics.fmean(1 / k for k in speeds)
