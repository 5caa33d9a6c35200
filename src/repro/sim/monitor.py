"""Measurement utilities: histograms and summaries.

Every experiment reports through these so EXPERIMENTS.md rows share one
vocabulary (count / mean / p50 / p95 / p99 / max).  Percentiles use the
nearest-rank method on the sorted sample — simple, exact, and adequate for
the sample sizes the benches produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Histogram", "Summary"]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def format(self, scale: float = 1.0, unit: str = "") -> str:
        if self.count == 0:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean * scale:.2f}{unit} "
            f"p50={self.p50 * scale:.2f}{unit} p95={self.p95 * scale:.2f}{unit} "
            f"p99={self.p99 * scale:.2f}{unit} max={self.maximum * scale:.2f}{unit}"
        )


class Histogram:
    """An accumulating sample with percentile queries."""

    def __init__(self) -> None:
        self._values: list[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        self._values.append(value)
        self._sorted = False

    def extend(self, values) -> None:
        self._values.extend(values)
        self._sorted = False

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s samples into this histogram (returns self).

        The aggregation path for per-node histograms: an exporter merges
        every node's series into a fresh cluster-total histogram whose
        percentiles are exact over the union sample.
        """
        if other._values:
            self._values.extend(other._values)
            self._sorted = False
        return self

    def __len__(self) -> int:
        return len(self._values)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values.sort()
            self._sorted = True

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100]."""
        if not self._values:
            raise ValueError("empty histogram")
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        self._ensure_sorted()
        if p == 0:
            return self._values[0]
        rank = math.ceil(p / 100 * len(self._values))
        return self._values[rank - 1]

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("empty histogram")
        return sum(self._values) / len(self._values)

    def summary(self) -> Summary:
        """Snapshot summary of the current sample.

        The empty case consistently carries ``count=0`` with zeroed fields
        (not NaN) so summaries stay strict-JSON-serializable and mergeable.
        The computation works on a single snapshot of the sample taken up
        front, so a ``record()`` landing between the emptiness check and
        the percentile reads (the concurrent-mutation case) cannot make
        the size observed by ``count`` disagree with the ranks used for
        the percentiles — let alone raise.
        """
        values = self._values
        n = len(values)
        if n == 0:
            return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        if not self._sorted and n == len(self._values):
            values.sort()
            self._sorted = True
        else:
            values = sorted(values[:n])

        def rank(p: float) -> float:
            return values[max(0, math.ceil(p / 100 * n) - 1)]

        return Summary(
            count=n,
            mean=sum(values) / n,
            p50=rank(50),
            p95=rank(95),
            p99=rank(99),
            minimum=values[0],
            maximum=values[n - 1],
        )
