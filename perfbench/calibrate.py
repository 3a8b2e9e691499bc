"""Machine-speed calibration: a fixed kernel timed alongside the ops.

The 2-vCPU host the benchmark was written on changes speed by up to 1.8x
for seconds to minutes at a time.  CPU time stretches with wall time, so
this is not descheduling, and a single process cannot avoid it.  Raw times
follow these swings: one 30 s gate pass varied by 25% between runs.

So the benchmark also times a fixed kernel that uses only the standard
library (``Fraction`` arithmetic, an int loop, a dict: the kind of work
congruent does) and scales each stretch of an op by ``REF_KERNEL_S`` over
the kernel's time measured next to it.  The gated times are thus seconds
at a reference machine speed.  A change to congruent moves them in full,
and the speed of the host at that moment cancels out.  The kernel does not
depend on congruent, so no change to the program can move it.  The text
report prints the raw times too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The kernel's time at the reference speed, about its median on the 2-vCPU
# host above.  It only fixes the scale; any constant would do.
REF_KERNEL_S = 0.0017
# CPU seconds between two kernel samples during ops (about 3% overhead).
SAMPLE_CPU_S = 0.05
# Samples whose median gives the speed at a moment.
NEAREST = 5

# Run in a fresh interpreter: time ``import congruent.cli``, then the kernel
# three times in the same process, and print both.
SETUP_CHILD = """
import time
start = time.perf_counter()
import congruent.cli
import_s = time.perf_counter() - start
import sys
sys.path.insert(0, sys.argv[1])
from calibrate import kernel_seconds
print(import_s, sorted(kernel_seconds() for _ in range(3))[1])
"""


def kernel():
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3)
    total, table = 0, {}
    for i in range(6000):
        total += (i * i) % 11
        table[i & 255] = total
    return acc, total, len(table)


def kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(seconds, kernel_s):
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


class SpeedMeter:
    """Samples the kernel every ``SAMPLE_CPU_S`` of CPU time while running.

    The samples run from a SIGPROF handler, so they also land inside a long
    op such as one gate pass.  ``scaled(start, end)`` takes their time back
    out of an op and scales the rest by the speed measured around it.
    """

    def __init__(self):
        self.starts, self.seconds = [], []
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.seconds.append(time.perf_counter() - start)
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        for _ in range(3):
            self._sample()
        return False

    def kernel_at(self, moment):
        """Median kernel time of the ``NEAREST`` samples closest to ``moment``."""
        i = bisect.bisect(self.starts, moment)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            if hi >= len(self.starts) or (lo > 0 and moment - self.starts[lo - 1] < self.starts[hi] - moment):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.seconds[lo:hi])

    def scaled(self, start, end):
        """Seconds of [start, end] outside the samples, scaled to reference speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total, cursor = 0.0, start
        for i in range(first, last):
            total += scaled(self.starts[i] - cursor, self.kernel_at((cursor + self.starts[i]) / 2))
            cursor = self.starts[i] + self.seconds[i]
        if end > cursor:
            total += scaled(end - cursor, self.kernel_at((cursor + end) / 2))
        return total

    def median_kernel(self):
        return statistics.median(self.seconds)
