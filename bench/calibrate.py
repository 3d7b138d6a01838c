"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over minutes as other tenants come and go.  ``Calibrator`` times
one round of two fixed kernels, one of each kind the sweeps spend their time
in: a solve with a banded Cholesky factor too large for the caches, bound by
memory traffic like the oracle's inner solves, and a dense LU solve, bound by
arithmetic like the factorizations and the secular lane's Birman-Schwinger
solves.  ``host_factor`` turns rounds into how much slower than nominal the
host ran.  Both kernels use numpy and scipy only, never the ``wgpoles`` code
under test, so that a change to the program cannot change them.  ``run.py``
imports this module after it sets the BLAS thread count.

Each kernel is timed by the CPU time of the thread that runs it, not by the
wall clock.  A round runs while the sweep stands paused, just after the
parent woke up; on a shared host its virtual CPU then often waited to be
scheduled, and that wait, which the sweep in full flight mostly escapes,
made wall-timed rounds swing far more than the sweeps.  Measured on a 2-core
cloud host, six window-ladder sweeps of one config, the spread of the
sweeps' wall times from first to third quartile, as a share of the median:
raw, 11.3%; scaled by wall-timed rounds, 9.2%; scaled by CPU-timed rounds,
2.5%.

Why two kernels, each run once untimed first: over eight such sweeps the
banded kernel alone left a spread of 6.4%, the dense kernel alone 8.2%, and
the geometric mean of the two 4.5%, because when the host sped up the
memory-bound kernel gained less than the sweep and the arithmetic-bound one
more.  A round right after the pause found the caches in whatever state the
sweep left them, which made single rounds scatter by 17-40%; run once
untimed first, they scattered by 10-22%.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg as sla

# a 66 MB factor, about the band of the largest window-ladder solve
BAND_N = 100_000
BAND_BW = 80
DENSE_N = 700
# mean CPU seconds of each kernel, timed in the pauses of a sweep on a
# 2-core cloud host; times are scaled to them.  Rounds are short so that
# many fit in a sweep: the host's speed swings by 10-20% (coefficient of
# variation) from one tenth of a second to the next, and the mean of N rounds
# is off by about that much over sqrt(N).
NOMINAL_S = (0.019, 0.016)


class Calibrator:
    """The reference kernels and their operands (about 70 MB, built in 0.5 s)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        band = np.empty((BAND_BW + 1, BAND_N))
        band[1:] = -rng.random((BAND_BW, BAND_N)) / BAND_BW
        band[0] = 2.0 + rng.random(BAND_N)  # diagonally dominant: positive definite
        self._factor = sla.cholesky_banded(band, overwrite_ab=True, lower=True,
                                           check_finite=False)
        self._dense = rng.standard_normal((DENSE_N, DENSE_N)) + DENSE_N * np.eye(DENSE_N)
        self._rhs = rng.standard_normal(BAND_N)

    def _banded(self) -> np.ndarray:
        return sla.cho_solve_banded((self._factor, True), self._rhs, check_finite=False)

    def _dense_solve(self) -> np.ndarray:
        return np.linalg.solve(self._dense, self._rhs[:DENSE_N])

    def timed_round(self) -> tuple[float, ...]:
        """CPU seconds of each kernel in one round, each run once untimed first."""
        times = []
        for kernel in (self._banded, self._dense_solve):
            kernel()
            start = time.thread_time()
            kernel()
            times.append(time.thread_time() - start)
        return tuple(times)


def host_factor(rounds: list[tuple[float, float]]) -> float:
    """How much slower than nominal the host ran during ``rounds``.

    The geometric mean over the kernels of each kernel's mean round time
    divided by its nominal time.
    """
    ratios = [
        sum(r[k] for r in rounds) / len(rounds) / nominal for k, nominal in enumerate(NOMINAL_S)
    ]
    return math.prod(ratios) ** (1.0 / len(ratios))

