"""Statistics over job records; standard library only."""

from __future__ import annotations

import math

TAIL_SAMPLES = 10


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ``TAIL_SAMPLES`` samples above it.

    With n sorted samples that is the (n - 10)-th smallest, the
    100 * (n - 10) / n percentile.  Below the median it says nothing about
    the tail, so fewer than 20 samples give ``None``.
    """
    values = sorted(samples)
    n = len(values)
    if n < 2 * TAIL_SAMPLES:
        return None
    return 100.0 * (n - TAIL_SAMPLES) / n, values[n - TAIL_SAMPLES - 1]


def rms(values) -> float:
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values))
