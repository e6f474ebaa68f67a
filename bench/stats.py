"""Order statistics used by the benchmark report (standard library only)."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest nearest-rank percentile with at least ``min_beyond`` samples
    beyond it.

    With n sorted samples the q-th nearest-rank percentile is the sample at
    rank ceil(q n / 100), and n - rank samples lie beyond it, so the highest
    admissible q is 100 (n - min_beyond) / n, at rank n - min_beyond.
    Returns (percentile, value, n); with too few samples for any such
    percentile the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= min_beyond:
        return 100.0, ordered[-1], n
    rank = n - min_beyond
    return 100.0 * rank / n, ordered[rank - 1], n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
