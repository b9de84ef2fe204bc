"""The machine's speed, sampled while the benchmark runs.

On a shared virtual machine the speed of one process shifts by up to a
factor of two, in level shifts that last from a fraction of a second to
tens of seconds, and every job's wall time shifts with it.  A fixed
integer loop that shares no code with cechfib measures that speed.
Every time the benchmark reports is scaled to a nominal speed: the time
the same work would take if one iteration of the loop took NOMINAL_S.

While a pass runs, a SIGALRM handler times the loop every INTERVAL_S of
wall time, so the samples cover the inside of long jobs as well as the
gaps between short ones.  The handler's own time is taken out of the
job it interrupted.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

LOOPS = 10_000          # one sample: about 1.3 ms
INTERVAL_S = 0.025      # while a pass runs, one sample per 25 ms of wall time
MIN_SAMPLES = 20        # a stretch's speed is the mean of at least this many
NOMINAL_S = 1e-7        # seconds per iteration at the nominal speed


def spin(loops=LOOPS):
    """Seconds per iteration of a fixed integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(loops):
        x = (x * 31 + i) % 1000003
    return (time.perf_counter() - t0) / loops


class Sampler:
    """A time series of spin() samples; ``with sampler:`` adds one every
    INTERVAL_S from a signal handler, and sample() adds one directly."""

    def __init__(self):
        self.at = array("d")        # start of each sample
        self.per_loop = array("d")  # its seconds per iteration
        self.spent = array("d", [0.0])   # handler seconds before each sample
        self._busy = False
        self._old = None

    def sample(self, *_signal):
        if self._busy:              # a late signal inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        per_loop = spin()
        self.at.append(t0)
        self.per_loop.append(per_loop)
        self.spent.append(self.spent[-1] + time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def stolen(self, t0, t1):
        """Seconds the samples that started between t0 and t1 took."""
        return (self.spent[bisect_left(self.at, t1)]
                - self.spent[bisect_left(self.at, t0)])

    def scale(self, t0, t1):
        """NOMINAL_S over the mean seconds per iteration from t0 to t1,
        widened on both sides until the stretch holds MIN_SAMPLES."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return NOMINAL_S * (hi - lo) / sum(self.per_loop[lo:hi])

    def scaled(self, t0, t1):
        """Wall seconds from t0 to t1 without the samples' own time,
        scaled to the nominal speed."""
        return (t1 - t0 - self.stolen(t0, t1)) * self.scale(t0, t1)
