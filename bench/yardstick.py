"""Scaling of measured times by the machine's speed while they were measured.

CPU speed on a shared virtual machine drifts by a quarter or more, within
seconds as well as over minutes, and user CPU time drifts with it.  While
a Yardstick is active, a SIGALRM handler times a fixed pure-Python loop
(reference_s) every PERIOD_S seconds.  Every interval timed through it gets

* `wall_s`: its wall time minus the time the handler ran inside it, and
* `s`: wall_s x REFERENCE_S / (harmonic mean of the loop samples taken
  within WINDOW_S of the interval), i.e. the time the interval would have
  taken while the loop takes REFERENCE_S.

The harmonic mean averages the loop's speed, so a long interval is scaled
by the speed averaged over its length.  The loop is the benchmark's own
code: no change to the program moves it, and a program twice as fast
reads half the scaled time.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

_clock = time.perf_counter

PERIOD_S = 0.05
WINDOW_S = 0.1
# About the median of the samples in a measured pass on the recording
# machine (2-vCPU KVM guest, Intel Xeon, Python 3.11.7), so that scaled
# times read close to wall times there; it only sets their scale.
REFERENCE_S = 0.0012


def reference_s(n: int = 2500) -> float:
    """Time of a fixed loop of integer arithmetic, dict stores and Fraction sums."""
    t0 = _clock()
    acc, table, q = 0, {}, Fraction(0)
    for i in range(n):
        acc += i * i % 7
        table[i % 512] = (i, acc)
        if i % 16 == 0:
            q += Fraction(i + 1, i % 7 + 1)
    return _clock() - t0


class Yardstick:
    """Samples reference_s during a pass and scales the intervals timed through it.

    Use as a context manager around the pass; time each operation with
    `interval()`, and call `scale()` to fill in `s` (again at the end, once
    the samples after the last interval exist).  An interval timed while
    the yardstick is not active gets `wall_s` only.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.intervals: list[dict] = []
        self._spent = 0.0
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        sample = reference_s()
        self.times.append(t0)
        self.samples.append(sample)
        self._spent += _clock() - t0

    def __enter__(self) -> Yardstick:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        # Samples after the last interval, so that its window is full.
        if exc[0] is None:
            time.sleep(WINDOW_S + PERIOD_S)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @contextlib.contextmanager
    def interval(self):
        rec: dict = {}
        spent, t0 = self._spent, _clock()
        yield rec
        t1 = _clock()
        rec.update(t0=t0, t1=t1, wall_s=t1 - t0 - (self._spent - spent))
        self.intervals.append(rec)

    def scale(self) -> None:
        if not self.samples:
            raise RuntimeError("no reference samples were taken")
        for rec in self.intervals:
            lo = bisect.bisect_left(self.times, rec["t0"] - WINDOW_S)
            hi = bisect.bisect_right(self.times, rec["t1"] + WINDOW_S)
            window = self.samples[lo:hi] or self.samples[max(0, lo - 2):lo + 2]
            rec["s"] = rec["wall_s"] * REFERENCE_S / statistics.harmonic_mean(window)
