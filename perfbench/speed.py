"""How fast the host runs this process, sampled while it computes.

On a shared 2-vCPU host the same Python code runs at speeds up to 50 %
apart, switching every few seconds, and slower still in busy hours.  Wall
time of one call varies by 25 % between runs, and a whole pass by 40 %
between an idle and a busy hour.  The speedometer divides that out: every
INTERVAL_S of CPU time a SIGPROF handler times a fixed probe, and a window's
speed is the mean of REFERENCE_PROBE_S / probe time over its samples.
Seconds times speed gives reference seconds: the time the same work takes
when the probe takes REFERENCE_PROBE_S.

The probe mixes what the workloads spend most of their time on:
interpreted integer arithmetic and `Fraction` arithmetic.  Over repeated
runs of one call, either kind alone tracked the calls of the other kind
worse; a numpy gather added to the probe ran cache-cold after each
stretch of the program and made the estimate noisier.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
# The probe's time on an uncontended core of the 2-vCPU x86-64 VM the
# baseline was measured on (Python 3.11): about the fastest
# twentieth of probes run back to back.
REFERENCE_PROBE_S = 90e-6

_FRACTIONS = [Fraction(i, 7) for i in range(1, 20)]


def _probe() -> None:
    s = 0
    for i in range(500):
        s += i * i % 7
    q = Fraction(0)
    for f in _FRACTIONS:
        q += f * f


class Speedometer:
    """SIGPROF-driven samples of the probe's duration.

    Only running sums are kept: a list growing inside the program's heap
    would change the program's own peak memory.
    """

    def __init__(self):
        self.count = 0
        self.seconds = 0.0  # total time of all samples
        self.speed_sum = 0.0  # sum of REFERENCE_PROBE_S / sample time

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _probe()
        took = perf_counter() - start
        self.count += 1
        self.seconds += took
        self.speed_sum += REFERENCE_PROBE_S / took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> tuple:
        return self.count, self.seconds, self.speed_sum

    def since(self, mark: tuple) -> tuple:
        """(seconds the samples since mark took, host speed over them).

        A window too short to hold a sample gets the speed of every sample.
        """
        count, seconds, speed_sum = self.mark()
        if count > mark[0]:
            return seconds - mark[1], (speed_sum - mark[2]) / (count - mark[0])
        return seconds - mark[1], speed_sum / count if count else 1.0
