"""Machine-speed calibration for the benchmark's timings.

The shared 2-vCPU machine this benchmark was built on switches between a fast
and a slow state every 10-60 s; the same 10^4-point prediction took 85 ms in
one and 125 ms in the other, in the same process, and campaign rounds moved by
35 % the same way. A 25-s run lands mostly in one state, so raw times spread by
30 % across runs. Every reported time is therefore scaled to a reference speed:
a fixed NumPy/SciPy kernel that uses no mfkrig code (Gaussian correlation
matrices, Cholesky factorizations and solves, as the fits and predictions do)
is timed next to the measured work, and

    time at reference speed = measured time * CAL_REF_S / kernel CPU time.

The kernel is timed in thread CPU time, so waiting for a core does not count,
only how fast the core runs. Raw times are printed and stored beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

# Median kernel CPU time on the reference machine: a shared 2-vCPU x86-64
# virtual machine, OpenBLAS 0.3.31 on one thread, in its fast state.
CAL_REF_S = 0.008

_rng = np.random.default_rng(20251125)
_X = np.sort(_rng.uniform(size=(100, 1)), axis=0) / 0.1
_XQ = _rng.uniform(size=(2000, 1)) / 0.1
_EYE = np.eye(100)


def kernel_cpu_s() -> float:
    """Thread CPU seconds of one pass of the fixed calibration kernel."""
    t0 = time.thread_time()
    for _ in range(10):
        lower = np.linalg.cholesky(np.exp(-0.5 * cdist(_X, _X, "sqeuclidean")) + 1e-3 * _EYE)
        cho_solve((lower, True), _EYE)
    cho_solve((lower, True), np.exp(-0.5 * cdist(_XQ, _X, "sqeuclidean")).T)
    return time.thread_time() - t0


def slowdown(samples) -> float:
    """Machine slowdown relative to the reference: median kernel time / CAL_REF_S."""
    return statistics.median(samples) / CAL_REF_S


def measure_slowdown(passes: int = 7) -> float:
    return slowdown([kernel_cpu_s() for _ in range(passes)])
