"""Machine-speed calibration.

The virtual machines this benchmark runs on change speed by up to 2x within
minutes, because other tenants share the physical cores: the same N=1000
seed run took 8.8 s and 18.6 s a few minutes apart, with no steal time
recorded.  A median over one run cannot remove a slow spell that covers the
whole run.  So while operations run, a timer signal runs a fixed
pure-Python loop every ``INTERVAL_S`` and records how long it took.  Each
operation's time is its host time minus the samples taken inside it, and
every time of the run, set-up included, is scaled by ``REFERENCE_S`` over
the run's mean loop time.  Reported seconds are therefore host seconds at
the speed at which the loop takes ``REFERENCE_S``.  The loop uses no
stegrouter code, so a change to the package cannot move it.  The results
file keeps the raw host times and every sample.

One sample is noisy, and slow spells last a minute or more, so one factor
per run tracks them better than factors taken around each operation.  On
the ten ``oracles`` runs of one afternoon, raw pass time spread by 19%
(quartile distance over median), per-operation factors left 6-8%, and one
factor per run left 5.8%.
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import heapq
import signal
import statistics
import time
from typing import Iterator

REFERENCE_S = 0.01
INTERVAL_S = 0.5


def _loop() -> None:
    # Dict updates, tuple allocation and a bounded heap: the operations the
    # simulator's inner loops are made of.
    table: dict[int, tuple[int, int]] = {}
    heap: list[tuple[int, int]] = []
    for i in range(12_000):
        key = (i * 7919) & 4095
        table[key] = (table.get(key, (0, 0))[0] + 1, i)
        heapq.heappush(heap, (key, i))
        if len(heap) > 512:
            heapq.heappop(heap)


def loop_s() -> float:
    """Host seconds of one run of the loop, with the garbage collector
    paused so that the size of the caller's heap does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibration samples taken from a SIGALRM handler while ``running()``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            seconds = loop_s()
            self.starts.append(start)
            self.seconds.append(seconds)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self) -> Iterator["Sampler"]:
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()  # so that even a run shorter than one interval has a sample

    def net(self, start: float, end: float) -> float:
        """Host seconds from ``start`` to ``end`` minus the samples taken
        in between."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.seconds[lo:hi])

    def factor(self) -> float:
        """Reference seconds per host second for this run."""
        return REFERENCE_S / statistics.fmean(self.seconds)
