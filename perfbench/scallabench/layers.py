"""Per-layer accounting: always-on counters and the traced run's self times.

Counts come from the stats objects every daemon keeps whether or not
tracing is on (``sim.events_processed``, ``NetworkStats``, ``CmsdStats``,
``CacheStats``, the response queue's counters, ``ClientStats`` and the
xrootd counters), so the traced and untraced runs can be compared count
for count.

Self time comes only from the traced run: :class:`Tracer` swaps each
layer's boundary functions for timing wrappers on the class, keeps a stack
of child time so nested layers are not counted twice, and puts the
originals back when it exits.  Whatever the wrapped layers do not account
for is the kernel's remainder: event dispatch plus the coroutine bodies
of the client, xrootd request handlers and the workload driver.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from repro.cluster.cmsd import Cmsd
from repro.cluster.fs import ServerFS
from repro.cluster.ids import Role
from repro.cluster.xrootd import XrootdServer
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.core.response_queue import ResponseQueue
from repro.sim.network import Network

__all__ = ["TIMED", "COUNTED", "Tracer", "add_daemon_counts", "cluster_counts", "delta"]

#: layer -> (class, boundary functions whose self time the layer owns).
TIMED = {
    "network": (Network, ("send",)),
    "cmsd": (Cmsd, ("_dispatch",)),
    "cache": (NameCache, ("lookup", "update_holder", "refresh", "tick")),
    "rq": (ResponseQueue, ("add_waiter", "on_response", "on_late_response", "expire")),
    "membership": (ClusterMembership, ("login", "disconnect", "drop")),
    "fs": (
        ServerFS,
        ("exists", "create", "put", "stat", "read", "write", "remove", "list", "total_bytes"),
    ),
}

#: Counted, not timed: ``XrootdServer._handle`` returns a generator, so a
#: timing wrapper would measure only the generator's creation.
COUNTED = {"xrootd": (XrootdServer, ("_handle",))}

_CMSD_FIELDS = (
    "locates",
    "redirects",
    "waits_sent",
    "notfounds",
    "queries_sent",
    "haves_received",
    "fast_released",
    "late_released",
    "rq_rejected",
    "refreshes",
    "logins_handled",
    "rehomes",
)
_CACHE_FIELDS = ("lookups", "hits", "adds", "corrections", "holder_updates")
_RQ_FIELDS = ("fast_responses", "timeouts", "rejected", "late_responses")
_XROOTD_FIELDS = ("opens", "open_failures")
_CLIENT_FIELDS = ("locates", "redirects", "waits", "refreshes", "failovers", "opens")


class Tracer:
    """Self-time wrappers around every layer boundary, for one traced run.

    Use as a context manager; the wrappers live on the classes only inside
    the ``with`` block.
    """

    def __init__(self) -> None:
        #: layer -> [self nanoseconds, calls]
        self.acc: dict[str, list[int]] = {layer: [0, 0] for layer in (*TIMED, *COUNTED)}
        #: Child-time accumulators; the bottom entry collects the time spent
        #: inside top-level wrapped calls.
        self._stack = [0]
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, (cls, names) in TIMED.items():
                for name in names:
                    self._swap(cls, name, self._timed(layer, cls.__dict__[name]))
            for layer, (cls, names) in COUNTED.items():
                for name in names:
                    self._swap(cls, name, self._counted(layer, cls.__dict__[name]))
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        """Put every original function back (idempotent)."""
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def self_ns(self, layer: str) -> int:
        return self.acc[layer][0]

    def calls(self, layer: str) -> int:
        return self.acc[layer][1]

    def _swap(self, cls: type, name: str, wrapper) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def _timed(self, layer: str, fn):
        stack = self._stack
        acc = self.acc[layer]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                acc[0] += elapsed - stack.pop()
                acc[1] += 1
                stack[-1] += elapsed

        return timed

    def _counted(self, layer: str, fn):
        acc = self.acc[layer]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            acc[1] += 1
            return fn(*args, **kwargs)

        return counted


def add_daemon_counts(counts: Counter, node) -> None:
    """Add one node's cmsd/cache/queue/xrootd counters into *counts*."""
    cmsd = node.cmsd
    if cmsd is not None:
        stats = cmsd.stats
        for f in _CMSD_FIELDS:
            counts["cmsd." + f] += getattr(stats, f)
        if cmsd.cache is not None:
            cs = cmsd.cache.stats
            for f in _CACHE_FIELDS:
                counts["cache." + f] += getattr(cs, f)
            if node.role is Role.MANAGER:
                counts["manager.cache.lookups"] += cs.lookups
                counts["manager.cache.hits"] += cs.hits
            for f in _RQ_FIELDS:
                counts["rq." + f] += getattr(cmsd.rq, f)
    if node.xrootd is not None:
        for f in _XROOTD_FIELDS:
            counts["xrootd." + f] += getattr(node.xrootd, f)


def cluster_counts(cluster, retired: Counter, clients) -> Counter:
    """Every always-on counter of *cluster*, plus daemons that have been
    replaced by a restart (*retired*) and the benchmark's *clients*."""
    counts = Counter(retired)
    counts["kernel.events"] += cluster.sim.events_processed
    ns = cluster.network.stats
    counts["network.sent"] += ns.sent
    counts["network.bytes"] += ns.bytes_sent
    counts["network.dropped"] += ns.dropped
    for node in cluster.nodes.values():
        add_daemon_counts(counts, node)
    for client in clients:
        for f in _CLIENT_FIELDS:
            counts["client." + f] += getattr(client.stats, f)
    return counts


def delta(after: Counter, before: Counter) -> dict[str, int]:
    """``after - before`` keeping zero entries (Counter subtraction drops them)."""
    return {k: after[k] - before.get(k, 0) for k in sorted(after)}
