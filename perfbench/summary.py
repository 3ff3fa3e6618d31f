"""Summary statistics shared by the workload process and the tests."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile from 50 to 99 with at least ``MIN_BEYOND`` of
    ``n`` samples above its nearest rank.

    Whole percentiles keep the reported tail close between runs whose sample
    counts differ a little. With fewer than ``2 * MIN_BEYOND`` samples none
    qualifies and the median (50) is used.
    """
    for pct in range(99, 50, -1):
        if n - math.ceil(pct * n / 100) >= MIN_BEYOND:
            return pct
    return 50


def tail(values) -> tuple[int, float]:
    """(percentile, value) of the tail rule over ``values``."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    return pct, nearest_rank(ordered, pct)
