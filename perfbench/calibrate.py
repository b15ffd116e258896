"""Fixed reference computation that tracks how fast the machine runs now.

On a shared or virtualised host the same job can take 1.6 times longer
for minutes at a time, and the speed changes within a run too.  The
benchmark times this kernel before the first job and after every job, and
multiplies each job's time by REFERENCE_S over the median of the kernel
times around that job, so a slow spell of the host moves the job and its
kernels together and cancels out.  A median of several kernel times, not
the one next to the job, is used because one kernel run is as jittery as
one job.  The kernel mixes small complex matrix products with an
interpreter loop, like the package's own hot paths; it uses nothing from
spintomo.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025  # kernel time at the reference speed

_MATRIX = (np.arange(81.0).reshape(9, 9) % 7 - 3) / 9 + 0.1j * np.eye(9)


def kernel_seconds() -> float:
    start = time.perf_counter()
    x = np.eye(9, dtype=complex)
    for _ in range(4000):
        x = _MATRIX @ x
        x = x / np.abs(x).max()
    total = 0
    for i in range(100000):
        total += i * i
    return time.perf_counter() - start


HALF_WINDOW = 2  # kernel times taken on each side of a job, besides its own two


def job_scales(kernel_times) -> list[float]:
    """Factor for each job that maps its wall time to the reference speed.

    ``kernel_times[0]`` was timed before the first job and
    ``kernel_times[i + 1]`` right after job ``i``.
    """
    k = kernel_times
    return [
        REFERENCE_S / statistics.median(k[max(0, i - HALF_WINDOW) : i + 2 + HALF_WINDOW])
        for i in range(len(k) - 1)
    ]


def time_scale(kernel_times) -> float:
    """Factor that maps wall times measured beside ``kernel_times`` to the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)
