"""The speed of the core a run is on, sampled while the run goes on.

On a shared host the same pure-Python work takes up to half as long again
when other jobs load the core: CPU time alone then measures the neighbours
as much as qgw (README, "How a run measures").  A ``SpeedSampler`` asks
for SIGPROF after every ``INTERVAL_S`` of the process's CPU time and, in
the handler, times ``kernel()``: a fixed piece of rational arithmetic, the
kind of work qgw's scalars do.  The time of an operation, less the kernels
that ran inside it, is then scaled by ``REF_KERNEL_S`` over the mean kernel
time during the operation: seconds at the reference speed, the kernel's
median time on the machine of the README's figures.

Times are thread CPU times: the process is single-threaded, and while a
process-wide CPU timer is armed, Linux reads the process CPU clock from
the timer's tick-updated total (inside the handler it does not advance at
all).  Only untraced runs sample; the kernel uses nothing of qgw.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
# Fewer samples than this inside an operation: the window reaches back to
# the samples just before it.
MIN_SAMPLES = 5
# median of kernel() on the reference machine (README)
REF_KERNEL_S = 450e-6


def kernel():
    """A fixed amount of rational arithmetic: 0.3-0.6 ms here, by the load.

    Of the kernels tried (integer loops, dict updates, small objects,
    Fractions), this one followed the speed of qgw's work most closely
    (README)."""
    x = Fraction(1, 3)
    for i in range(1, 40):
        x = x * Fraction(i + 1, i) + Fraction(1, i)
        x = x / (x + 1)
    return x


class SpeedSampler:
    def __init__(self):
        self.times = []

    def _tick(self, signum=None, frame=None):
        # A garbage collection falling due inside the kernel would be
        # counted as kernel time: it would slow the sample, and its work
        # would be taken out of the operation's time.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        kernel()
        self.times.append(time.thread_time() - t0)
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        return len(self.times)

    def spent(self, since):
        """Seconds the kernels took since ``mark()`` returned ``since``."""
        return sum(self.times[since:])

    def scale(self, since):
        """REF_KERNEL_S over the mean kernel time since ``since``.

        The mean, not the median: the core runs at two speeds, and an
        operation's time follows the share of each.  Samples over twice the
        median are left out: the two speeds differ by less than half, while
        a sample now and then takes 1-4 ms (README)."""
        window = self.times[max(0, min(since, len(self.times) - MIN_SAMPLES)):]
        cap = 2 * statistics.median(window)
        return REF_KERNEL_S / statistics.fmean(t for t in window if t <= cap)
