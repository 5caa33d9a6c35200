"""The metrics registry: pulled counters and gauges, pushed histograms.

Every protocol event is already counted once, in the always-on statistics
of the component it happens in (``CmsdStats``, ``CacheStats``, the
response queue's ``fast_responses`` ...) — the fields the benches and
perfbench read.  The registry does not keep a second copy.  A component
binds its fields once, at construction, with :meth:`MetricsRegistry.pull`,
and the registry reads them only when a snapshot or
:meth:`~MetricsRegistry.counter_total` is taken.  The hot path pays
nothing for counters and gauges, not even an ``is not None`` guard.

Metric identity is ``(name, sorted(labels))``, the Prometheus convention:
``cache_lookups_total{node="m0"}`` and the same name with ``node="s3"``
are independent series that an exporter can aggregate.  Several sources
may bind the same series:

* a **counter** sums every source ever bound under its key, so a
  restarted daemon (a fresh object) keeps counting into the series its
  predecessor started;
* a **gauge** reads the newest source — the live daemon, not the dead one.

Histograms stay push-based (no stats field holds a distribution): they are
:class:`repro.sim.monitor.Histogram`, so per-node series merge into
cluster totals via :meth:`~repro.sim.monitor.Histogram.merge` and report
the same p50/p95/p99 summary the benches already print.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.sim.monitor import Histogram

__all__ = ["MetricsRegistry", "labels_key"]

#: What a series reads from its source: an attribute name (dotted paths
#: like ``"stats.locates"`` allowed) or a function of the source.
Field = str | Callable[[Any], Any]


def labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set."""
    return tuple(sorted(labels.items()))


def _reader(source: Any, field: Field) -> Callable[[], Any]:
    if callable(field):
        return lambda: field(source)
    get = attrgetter(field)
    return lambda: get(source)


class MetricsRegistry:
    """Series keyed by name + labels: pulled counters/gauges, histograms."""

    def __init__(self) -> None:
        self._counters: dict[tuple, list[Callable[[], Any]]] = {}
        self._gauges: dict[tuple, Callable[[], Any]] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- binding -------------------------------------------------------------

    def pull(
        self,
        source: Any,
        *,
        counters: Iterable[tuple[str, Field]] = (),
        gauges: Iterable[tuple[str, Field]] = (),
        **labels: str,
    ) -> None:
        """Export fields of *source* as counter and gauge series.

        Each entry is ``(metric name, field)``; every series gets *labels*.
        Nothing is read now — values are read at :meth:`collect` /
        :meth:`counter_total` time.
        """
        lk = labels_key(labels)
        for name, field in counters:
            self._counters.setdefault((name, lk), []).append(_reader(source, field))
        for name, field in gauges:
            self._gauges[(name, lk)] = _reader(source, field)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get-or-create the histogram series *name* + *labels*."""
        key = (name, labels_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram()
        return h

    # -- aggregation / readout -----------------------------------------------

    def counter_total(self, name: str) -> int:
        """Sum of one counter name across every label set and source."""
        total = 0
        for (n, _), readers in self._counters.items():
            if n == name:
                total += sum(read() for read in readers)
        return total

    def merged_histogram(self, name: str) -> Histogram:
        """All series of one histogram name merged into a cluster total."""
        total = Histogram()
        for (n, _), h in self._histograms.items():
            if n == name:
                total.merge(h)
        return total

    def collect(self):
        """Iterate ``(kind, name, labels, value)`` over every series.

        *value* is the current number for counters and gauges and the
        :class:`~repro.sim.monitor.Histogram` itself for histograms.
        """
        for key in sorted(self._counters):
            name, lk = key
            yield "counter", name, dict(lk), sum(read() for read in self._counters[key])
        for key in sorted(self._gauges):
            name, lk = key
            yield "gauge", name, dict(lk), self._gauges[key]()
        for key in sorted(self._histograms):
            name, lk = key
            yield "histogram", name, dict(lk), self._histograms[key]
