"""Order statistics shared by the benchmark runner and the compare script."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, lowest first.  The reported tail is the highest
#: of these that still leaves at least ``MIN_BEYOND`` samples above it, so the
#: choice only moves when a run's sample count crosses a band edge.  The list
#: stops at p95: on a shared two-core machine the p99 and p99.9 of a
#: sub-millisecond op are set by preemption from other processes, not by the
#: program, and did not repeat from run to run.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0)
MIN_BEYOND = 10


def rank_of(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))  # round off float noise


def beyond(p: float, n: int) -> int:
    """Number of samples ranked strictly above the ``p``-th percentile."""
    return n - rank_of(p, n)


def pick_tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ``MIN_BEYOND`` samples beyond.

    Falls back to the median when even that leaves fewer (tiny runs).
    """
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if beyond(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    return sorted_values[rank_of(p, len(sorted_values)) - 1]


def latency_summary(latencies_ns) -> dict:
    """Median and tail latency in milliseconds, with the tail's percentile."""
    values = sorted(latencies_ns)
    n = len(values)
    p = pick_tail_percentile(n)
    return {
        "p50_ms": percentile(values, 50.0) / 1e6,
        "tail_ms": percentile(values, p) / 1e6,
        "tail_percentile": p,
        "tail_beyond": beyond(p, n),
        "samples": n,
    }


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
