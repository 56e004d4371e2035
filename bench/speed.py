"""Host speed reference: fixed work timed before every round of a run.

The speed of a shared host drifts by tens of percent over minutes, and the
drift moves every wall time of a run together.  The reference work is
fixed (three dense least-squares solves and a loop of small matrix-vector
steps, about the blend of LAPACK calls and interpreted steps in a trial)
and depends neither on parsimid nor on the seed.  Time metrics are
reported at the reference speed: a measured time times REFERENCE_MS over
the median time of the reference work measured around it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the reference work's median time on the host that the README's
# figures come from (2-core Intel Xeon VM, one BLAS thread), so that
# figures at the reference speed read close to that host's wall times.
REFERENCE_MS = 10.0
# Samples per local speed estimate.  The speed changes over seconds as well
# as minutes; a median over a few neighbouring rounds follows those changes
# without taking on the jitter of a single 10 ms sample.
LOCAL_WINDOW = 5


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(20240507)
        self._X = rng.standard_normal((1900, 60))
        self._y = rng.standard_normal(1900)
        self._A = 0.5 * np.eye(3)
        self._b = np.ones(3)
        self.samples: list[float] = []

    def measure(self) -> None:
        t0 = perf_counter()
        for _ in range(3):
            np.linalg.lstsq(self._X, self._y, rcond=None)
        x = np.zeros(3)
        for _ in range(700):
            x = self._A @ x + 0.5 * self._b
        self.samples.append(perf_counter() - t0)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference speed."""
        return REFERENCE_MS / self.median_ms()

    def local_scales(self) -> list[float]:
        """Factor for the work that followed each sample: REFERENCE_MS over
        the median of the LOCAL_WINDOW samples centred on it."""
        half = LOCAL_WINDOW // 2
        return [
            REFERENCE_MS / (1e3 * statistics.median(self.samples[max(0, i - half): i + half + 1]))
            for i in range(len(self.samples))
        ]
