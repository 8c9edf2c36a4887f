"""Machine speed, sampled between jobs with a fixed reference kernel.

The CPU speed of a shared virtual machine drifts while a run goes on: on a
2-vCPU virtual machine shared with other tenants, one fixed pure-Python
loop took from 195 to 293 ms within a minute, and slow phases lasted from
seconds to minutes. Medians of raw wall times then spread by 16-47%
(quartile distance over median) between runs. The benchmark therefore
times a small kernel that does not depend on tmsm before and after every
job (and between the steps of long jobs), and divides each measured time
by the kernel's slowdown at the time it ran: the median over the samples
that bracket the span and `WIDEN` more on each side, since one sample
(the fastest of three kernel runs) still varies by tens of percent.
Figures are in seconds at the reference speed, the speed at which the
kernel takes `REFERENCE_S`. The record file keeps the raw wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time in a fast phase of the 2-vCPU machine described above.
REFERENCE_S = 0.006
# Samples beyond the bracketing ones that enter a span's slowdown.
WIDEN = 2


class SpeedGauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.standard_normal((4096, 3))
        self._axis = rng.standard_normal(3)
        self.samples: list[tuple[float, float]] = []

    def _kernel(self) -> float:
        # Interpreter work and numpy calls on arrays of the boundary's size,
        # the two kinds of work tmsm's hot paths do.
        start = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        p, v = self._points, self._axis
        for _ in range(25):
            az = np.arctan2(p @ v, p @ v[::-1])
            np.mod(np.diff(az) + np.pi, 2.0 * np.pi).sum()
        return time.perf_counter() - start

    def tick(self) -> None:
        """Sample the speed now: three kernel runs."""
        runs = [self._kernel() for _ in range(3)]
        self.samples.append((time.perf_counter(), *runs))

    def slowdown(self, start: float, end: float) -> float:
        """Median kernel slowdown over [start, end], widened by `WIDEN`
        samples on each side of the bracketing ones."""
        times = [s[0] for s in self.samples]
        lo = max([i for i, t in enumerate(times) if t <= start], default=0)
        hi = min([i for i, t in enumerate(times) if t >= end], default=len(times) - 1)
        chosen = [min(s[1:]) for s in self.samples[max(0, lo - WIDEN):hi + 1 + WIDEN]]
        return statistics.median(chosen) / REFERENCE_S

    def scaled(self, timing) -> float:
        """Seconds a timed span would have taken at the reference speed."""
        return timing.seconds / self.slowdown(timing.start, timing.end)
