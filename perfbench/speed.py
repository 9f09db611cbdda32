"""The machine's speed of the moment, sampled while the benchmark runs.

The virtual cores this benchmark runs on change speed by up to 2x in phases
that last from a fraction of a second to minutes (see the README), so raw
times of the same code spread by more than any useful bound.  ``Probe`` runs
a fixed pure-Python reference computation from a SIGALRM timer every
``INTERVAL`` seconds, in the benchmark's own process and thread, and records
how long it took.  A time measured over [start, end] is then reported at the
machine's nominal speed: multiplied by the mean of ``NOMINAL_S`` over the
reference times sampled around that interval.  The reference uses only the
standard library, so no change to stablepricer changes its work, and it can
run before ``import stablepricer``; it is called twice untimed before each
timed call, so that what the program left in the caches barely moves it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

INTERVAL = 0.04  # s between samples; a sample takes about 0.3 ms
WARM_CALLS = 2  # untimed reference calls before the timed one
# Reported times are those of a machine on which one reference call takes
# NOMINAL_S.  It is a round figure near the median on the machine the README's
# figures come from (2 virtual cores of a 2.0 GHz Xeon, Python 3.11.7), where
# the median over one run moved between 59 and 124 us from run to run.
NOMINAL_S = 1.0e-4
# Importing the package (reading files, loading extension modules) slows
# less than the reference: over 40 fresh processes, log set-up time against
# log speed factor had a slope of 0.67, and the set-up times spread by 0.18 of
# their median raw, 0.10 scaled by the whole factor and 0.064 by its 0.7th
# power.  The workloads' operations track the factor itself (slopes 0.93 to
# 1.11).
SETUP_ELASTICITY = 0.7
# An interval shorter than this is scaled by the samples within half of it on
# each side, so that a short operation gets a mean of several samples.
MIN_WINDOW = 0.3


def reference() -> float:
    """A fixed computation of the kind the series kernel does: a loop of
    float arithmetic and math.lgamma, log and exp calls."""
    total = 0.0
    for i in range(1, 160):
        x = i * 0.37
        total += math.exp(math.lgamma(x) * 1e-3) * math.log(x) - math.cos(x)
    return total


class Probe:
    """Samples the reference on a timer; its own time is kept apart so that
    it can be taken out of the times it interrupts."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample started
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        # Right after the program's own work the first call is up to 23%
        # slower (cold caches); the third is within 2% of an idle one.
        for _ in range(WARM_CALLS):
            reference()
        timed = clock()
        reference()
        end = clock()
        self.times.append(start)
        self.durations.append(end - timed)
        self.spent += clock() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, start: float, end: float, elasticity: float = 1.0) -> float:
        """The mean of NOMINAL_S over the reference times sampled around
        [start, end], to the power `elasticity`: how much the timed work
        slows, on a log scale, when the reference slows.

        Samples come at even intervals, so the mean is the machine's average
        speed over the interval, which is what scales the work done in it.  A
        median picks one phase when the speed changes within a long interval:
        it scaled 10-second ladders by about half of what they moved."""
        pad = max(0.0, (MIN_WINDOW - (end - start)) / 2.0)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if hi - lo < 3:  # too few samples near the interval: widen to three
            mid = bisect.bisect_left(self.times, (start + end) / 2.0)
            lo, hi = max(0, mid - 2), min(len(self.times), mid + 2)
        if lo >= hi:
            raise RuntimeError("no reference samples were taken")
        return statistics.fmean(NOMINAL_S / d for d in self.durations[lo:hi]) ** elasticity

    def median_us(self) -> float:
        return statistics.median(self.durations) * 1e6
