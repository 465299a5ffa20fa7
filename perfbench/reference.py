"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the same computation runs at different speeds from one
stretch of seconds to the next, with load that is not the benchmark's.
Timing this kernel right before and after each step tells how fast the
machine was during that step, and scales the step's time to the speed at
which the kernel takes NOMINAL_MS. The kernel uses numpy and scipy only,
never pnpns, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

#: the kernel's wall time, in ms, at the speed steps are scaled to: a round
#: figure inside the 6-9 ms it takes on the 2-CPU VM the benchmark was built
#: on, so that scaled times there read close to unscaled ones
NOMINAL_MS = 7.0


class Reference:
    """The kernel's inputs, built once; calling it returns its wall time in s.

    The work mixes what a step does: small 2-D real FFTs (dispatch-bound),
    one larger FFT (compute-bound), matrix-vector products over a 4 MB
    block (memory-bound, as the GMRES basis is) and an interpreter loop.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((64, 64))
        self.large = rng.standard_normal((256, 256))
        self.block = rng.standard_normal((64, 8192))
        self.vector = rng.standard_normal(8192)

    @staticmethod
    def factor(before_s: float, after_s: float) -> float:
        """Speed factor of work done between two kernel runs: NOMINAL_MS over their mean."""
        return 2e-3 * NOMINAL_MS / (before_s + after_s)

    def __call__(self) -> float:
        started = time.perf_counter()
        for _ in range(24):
            scipy.fft.irfft2(scipy.fft.rfft2(self.small), s=self.small.shape)
        scipy.fft.irfft2(scipy.fft.rfft2(self.large), s=self.large.shape)
        for _ in range(6):
            coeffs = self.block @ self.vector
            self.block.T @ coeffs
        total = 0
        for i in range(15000):
            total += i
        return time.perf_counter() - started
