"""Machine-speed probe: converts measured seconds to reference-speed seconds.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 2x over seconds to minutes.  CPU time
drifts the same way, so neither clock alone gives steady numbers.  The
probe runs a fixed pure-Python kernel (~0.7 ms) from a SIGALRM handler
every 50 ms while the workload runs.  An interval's reference-speed
seconds are its measured seconds, minus the probe's own time inside it,
times the mean of REF_KERNEL_S / kernel time over the samples taken in
it.  At the reference speed, where the kernel takes REF_KERNEL_S, the two
agree.
"""

from __future__ import annotations

import signal
import time

REF_KERNEL_S = 0.0007
INTERVAL_S = 0.05
# Samples this close to an interval also count for it, so that intervals
# shorter than INTERVAL_S still get a speed.
WINDOW_S = 0.25


def kernel():
    """Integer arithmetic, tuples and dict stores, as the program does."""
    table = {}
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = (acc, i)
    return acc


class SpeedProbe:
    """Samples the kernel's duration on a timer; owns SIGALRM while running."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _tick(self, signum, frame):
        start = time.monotonic()
        kernel()
        self.starts.append(start)
        self.durations.append(time.monotonic() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_seconds(self, start, end):
        """Seconds that [start, end] (CLOCK_MONOTONIC) takes at the reference speed."""
        inside = [d for s, d in zip(self.starts, self.durations) if start <= s < end]
        near = [d for s, d in zip(self.starts, self.durations)
                if start - WINDOW_S <= s < end + WINDOW_S] or self.durations[-5:]
        if not near:
            raise RuntimeError("the speed probe took no samples")
        speed = sum(REF_KERNEL_S / d for d in near) / len(near)
        return (end - start - sum(inside)) * speed
