"""Simulated Mass Storage System (tape archive).

The paper's V_p vector exists because HEP sites front a tape archive with
disk servers: a requested file may be *offline* (only on tape) and must be
staged, which "is typically on the order of minutes" (§III-B2).  We model
the archive as a catalog of (path → size) plus a staging delay; a server
whose MSS holds a file answers queries with a *pending* response (→ V_p)
and completes the open only after the stage finishes.

One MSS instance may back many servers (a site archive) or one (a node-local
tape drive); the cluster builder decides.
"""

from __future__ import annotations

import random

from repro.sim.kernel import Event, Simulator
from repro.sim.latency import Fixed, LatencyModel

__all__ = ["MassStorage"]


class MassStorage:
    """A stage-on-demand archive with configurable staging latency."""

    def __init__(
        self,
        sim: Simulator,
        *,
        stage_latency: LatencyModel | None = None,
        seed: float = 0,
    ) -> None:
        self.sim = sim
        # Default 120 s: "order of minutes", scaled benches override it.
        self.stage_latency = stage_latency if stage_latency is not None else Fixed(120.0)
        self._seed = seed
        self._rng: random.Random | None = None
        self._catalog: dict[str, int] = {}
        self._staging: dict[str, Event] = {}
        self.stages_started = 0
        self.stages_completed = 0
        #: Called with the path before every archive and stage, like
        #: :attr:`~repro.cluster.fs.ServerFS.watchers` (one archive may back
        #: many servers, so several cmsds may watch it).
        self.watchers: tuple = ()

    @property
    def rng(self) -> random.Random:
        """The staging-time generator, ``Random(seed)``, built on first use.
        (Not functools.cached_property: it stores through ``__dict__``,
        which on CPython 3.11 slows every later attribute read on the
        instance.)"""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    def archive(self, path: str, size: int) -> None:
        """Register *path* as available on tape."""
        for watch in self.watchers:
            watch(path)
        self._catalog[path] = size

    def has(self, path: str) -> bool:
        return path in self._catalog

    def size_of(self, path: str) -> int:
        return self._catalog[path]

    def stage(self, path: str) -> Event:
        """Begin (or join) staging *path*; the event fires when it is on disk.

        Concurrent requests for the same file share one stage operation —
        tape drives are precious.  The event's value is the file size.
        """
        if path not in self._catalog:
            raise KeyError(f"not archived: {path!r}")
        for watch in self.watchers:
            watch(path)
        existing = self._staging.get(path)
        if existing is not None and not existing.processed:
            return existing
        done = Event(self.sim)
        self._staging[path] = done
        self.stages_started += 1
        sim = self.sim
        sim.call_at(sim.now + self.stage_latency.sample(self.rng), self._staged, path)
        return done

    def _staged(self, path: str) -> None:
        self.stages_completed += 1
        self._staging[path].succeed(self._catalog[path])

    def catalog_paths(self) -> list[str]:
        return sorted(self._catalog)
