"""Percentiles with a tail-size guard, and medians for host timings."""

from __future__ import annotations

import math
import re
import statistics

__all__ = ["MIN_TAIL", "NAME_RE", "percentile", "median"]

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10

#: What every metric and workload name must look like.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def percentile(samples, q: float) -> float:
    """Nearest-rank *q*-quantile of *samples* (``0 < q < 1``).

    Refuses (ValueError) when fewer than :data:`MIN_TAIL` samples lie
    beyond the chosen rank: a p99 over 500 samples rests on five values
    and is noise, not a tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} over {n} samples has {beyond} beyond it; need {MIN_TAIL}"
        )
    return sorted(samples)[rank - 1]


def median(values) -> float:
    if not values:
        raise ValueError("median of nothing")
    return statistics.median(values)
