"""Host speed reference for the benchmark's timings.

The benchmark runs on a few cores of a host shared with other tenants, and
the speed of those cores drifts: the same orbit-sim op takes 0.60 s for some
seconds and 0.90 s for the next ones, with process CPU time moving with wall
time, so the op runs slower rather than waits.  Over 30-second runs that
drift alone spreads the run medians of wall times by 8-22 %.

``HostSpeed.sample()`` times a fixed piece of reference work that uses no
peakwave code: an interpreter loop, numpy element-wise arithmetic and
scipy banded solves, the three kinds of work peakwave's ops consist of.  The
benchmark samples it right before and right after every op and scales the
op's wall time by ``REFERENCE_SECONDS`` over the mean of the two samples.
The scaled time reads as the op's seconds on the host at reference speed.
A change to peakwave moves the op's time and not the reference work's, so it
shows in the scaled time in full; a change in host speed moves both and
cancels out.
"""

from __future__ import annotations

import time

#: Seconds one ``sample()`` takes at reference speed: roughly its fastest
#: time on a 2-vCPU Intel Xeon host (the lower tenth of 2000 samples).
REFERENCE_SECONDS = 0.013

#: Iterations of each part of the reference work.
LOOP_COUNT = 60_000
VECTOR_REPEATS = 60
SOLVE_REPEATS = 60
SIZE = 4001


class HostSpeed:
    """Times the reference work; ``factor`` turns a wall time into reference seconds."""

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        self._np = np
        self._solve_banded = solve_banded
        self._x = np.linspace(0.0, 1.0, SIZE)
        self._bands = np.vstack([np.full(SIZE, -1.0), np.full(SIZE, 2.5), np.full(SIZE, -1.0)])
        for _ in range(3):
            self.sample()

    def sample(self) -> float:
        """Wall seconds of one pass of the reference work."""
        np, x = self._np, self._x
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP_COUNT):
            acc += i * i
        total = 0.0
        for _ in range(VECTOR_REPEATS):
            total += float(np.sum(np.sin(x) * x + np.exp(-x)))
        b = x
        for _ in range(SOLVE_REPEATS):
            b = self._solve_banded((1, 1), self._bands, b)
        seconds = time.perf_counter() - start
        if acc <= 0 or not total > 0.0 or not np.isfinite(b[0]):
            raise RuntimeError("reference work gave a wrong result")
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Reference seconds per wall second between two samples."""
        return REFERENCE_SECONDS / (0.5 * (before + after))
