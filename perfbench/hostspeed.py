"""Host speed, sampled between operations, to take host interference out of timings.

On a shared host the same code runs up to 1.5x slower for stretches of a
minute or more, while a neighbour loads the physical core.  Every run
samples a fixed calibration loop -- small scipy.special and scipy.stats
calls on short arrays, the same mix of per-call overhead and small-array
arithmetic as the program, but none of its code -- before the first round,
after every round, and between operations at least every INTERVAL_S
seconds.  An operation's time is then scaled by REFERENCE_S / (calibration
time around it): the time it would have taken on a host that runs the loop
in REFERENCE_S.  Raw wall-clock figures are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
from scipy import stats
from scipy.special import gammaln

# Calibration loop time of the 2-vCPU reference host when uncontended.
REFERENCE_S = 0.012
# Longest gap between samples while operations run.
INTERVAL_S = 0.25

_X = np.arange(40.0)


def calibration_loop() -> float:
    """Seconds for one fixed pass of the calibration work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.exp(-gammaln(_X[:, None] + _X[None, :12] + 0.5)).sum())
        acc += float(stats.poisson.sf(i % 30, 5.0))
    return time.perf_counter() - start


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = calibration_loop()
        self.times.append(start + seconds / 2)
        self.loops.append(seconds)
        self._last = time.perf_counter()

    def between(self) -> None:
        """Called between operations: samples when INTERVAL_S has passed."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """REFERENCE_S over the mean calibration time of the samples just
        before and just after time t."""
        i = bisect.bisect(self.times, t)
        around = self.loops[max(i - 1, 0) : i + 1]
        return REFERENCE_S / (sum(around) / len(around))
