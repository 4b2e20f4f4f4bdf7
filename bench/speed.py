"""How fast the host ran, sampled while the program runs.

The benchmark's host is shared, and the speed it gives one process swings
by a quarter within tens of seconds. A fixed Fraction loop, timed in
2-second blocks for 150 s, took from 0.65 to 1.24 times its median, in CPU
time as in wall time, so CPU time does not help. A run of 20 to 30 s cannot
average such swings out. So the worker also measures how fast the host was
while each command ran, and the end-to-end times are reported at a fixed
reference speed.

``Sampler`` interrupts the process every ``INTERVAL`` seconds (a SIGALRM
interval timer) and times ``probe``, a fixed piece of Fraction arithmetic
like the program's own. ``speed_of`` gives the speed of the host while
some probes were taken, relative to the speed at which the probe takes
``REFERENCE_S``; seconds times that speed are seconds at the reference
speed. The worker takes the time of the probes themselves out first, so
the sampling adds about 2 % to the raw times and nothing to the reported
ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.025
#: About the probe's median duration on the reference machine of README.md,
#: where it ranged from 0.55 to 0.75 ms with the host's load.
REFERENCE_S = 0.00065


def probe() -> Fraction:
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i, i % 7 + 2)
    return x


class Sampler:
    """Probe durations, in the order they were taken."""

    def __init__(self):
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def speed_of(durations: list[float]) -> float:
    """The host's speed over a stretch of time, relative to the reference
    speed: the mean of ``REFERENCE_S / d`` over the probes taken in it,
    since the probes are spread evenly in time."""
    if not durations:
        raise ValueError("no host-speed probe was taken")
    return sum(REFERENCE_S / d for d in durations) / len(durations)
