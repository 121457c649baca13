"""Order statistics shared by the workloads and the comparison report."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``n * (1 - q/100)`` lie beyond)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its
    value; with fewer than twenty values that is the median."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (count - 10) / count, ordered[count - 11]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else 0.0
