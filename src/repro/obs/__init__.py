"""Cluster-wide observability: metrics registry + resolution tracing.

Production XRootD deployments live and die by their monitoring streams;
this package gives the reproduction the same eyes.  It has three parts:

* :mod:`repro.obs.registry` — a zero-dependency metrics registry.
  Counters and gauges are *pulled*: they read the components' own
  always-on stats when a snapshot is taken.  Histograms are bench-grade
  :class:`repro.sim.monitor.Histogram` series (bench reporting and
  in-system metrics share one percentile vocabulary);
* :mod:`repro.obs.trace` — per-request *resolution traces*: spans and
  point events recorded as a lookup walks client → manager cmsd →
  supervisor → server, stamped with sim-kernel time;
* :mod:`repro.obs.export` — JSON snapshot export plus the derived
  cluster-level summary (cache-hit ratio, messages per resolution,
  queue-wait percentiles) that ``benchmarks/reporting.py`` consumes.

Everything hangs off one :class:`Observability` hub.  Instrumented
components take ``obs=None``; with a hub they bind their stats fields to
it once, in the constructor, and guard only histogram samples and trace
annotations with an ``is not None`` check.  Enable it cluster-wide with
``ScallaConfig(observability=True)``::

    cluster = ScallaCluster(16, config=ScallaConfig(observability=True))
    ...
    snap = export.snapshot(cluster.obs)
    snap["derived"]["cache_hit_ratio"]
"""

from __future__ import annotations

from typing import Callable

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import ResolutionTrace, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "Observability",
    "ResolutionTrace",
    "Span",
    "Tracer",
]


class Observability:
    """The hub: one metrics registry plus one tracer, sharing a clock.

    The clock defaults to a frozen zero so the hub is usable standalone
    (unit tests, wall-clock-free micro-benches); the cluster layer binds
    it to the simulation kernel with :meth:`bind_clock` so every metric
    and span is stamped with sim time.
    """

    def __init__(self, clock: Callable[[], float] | None = None, *, max_traces: int = 512) -> None:
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.now, max_finished=max_traces)

    def now(self) -> float:
        """Current observation time (sim time once bound to a kernel)."""
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the hub at an authoritative clock (``lambda: sim.now``)."""
        self._clock = clock
