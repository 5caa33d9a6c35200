"""Time-based eviction: the 64-slot sliding window.

Every location object lives for a fixed lifetime ``L_t`` (default eight
hours).  Enforcing per-object timers over millions of objects would be
heap-management noise on the hot path, so the paper instead divides ``L_t``
into 64 windows and ticks a window clock ``T_w`` every ``L_t / 64`` (7.5
minutes at the default):

* at insert, an object records ``T_a = T_w mod 64`` and is chained into
  window ``T_a``;
* on each tick, every object in the *new* window whose ``T_a`` matches is
  **hidden** (key length zeroed — O(1), lookups immediately stop finding
  it), and physical removal is left to a background job;
* on average only 1/64 ≈ 1.6% of the cache is touched per tick, so
  "the cost of cache maintenance is equally spread across L_t".

Refreshes complicate the picture (§III-C1): a refreshed object gets a new
``T_a`` but is *not* moved to its new window chain — individually re-chaining
objects "results in a more quadratic cost".  Instead the purge pass over a
window chain re-chains, in the same linear sweep, every object whose ``T_a``
no longer matches the window being purged.  Bench E9 reproduces the
linear-vs-quadratic comparison against
:mod:`repro.baselines.naive_eviction`.

This module is deliberately clock-agnostic: :meth:`EvictionWindows.tick` is
called by whoever owns time — a wall-clock thread in production, a sim
process at ``L_t/64`` in the cluster layer, or a bench loop directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.violations import WindowAccountingViolation
from repro.core.location import LocationObject

__all__ = ["EvictionWindows", "TickResult", "WINDOW_COUNT", "DEFAULT_LIFETIME"]

#: Number of windows the lifetime is divided into (paper: L_t / 64).
WINDOW_COUNT = 64

#: Default location-object lifetime L_t, in seconds (paper: eight hours).
DEFAULT_LIFETIME = 8 * 3600.0


@dataclass(slots=True)
class TickResult:
    """Outcome of one window tick.

    ``hidden`` objects were logically evicted this tick and await physical
    removal; ``newly_hidden`` counts how many of those the sweep itself hid
    (the rest were already hidden by an explicit invalidate — the cache's
    O(1) live counter needs the distinction); ``rechained`` counts objects
    the sweep moved to their correct window (the deferred re-chaining
    optimization at work).
    """

    window: int
    hidden: list[LocationObject] = field(default_factory=list)
    newly_hidden: int = 0
    rechained: int = 0
    swept: int = 0


class EvictionWindows:
    """The 64 window chains plus the window clock ``T_w``.

    Chains are plain lists of objects.  An object's authoritative desired
    window is its ``t_a`` field; ``chain_window`` records where it is
    *physically* chained, which may lag after a refresh until the next
    purge of its old chain.
    """

    __slots__ = (
        "_chains",
        "t_w",
        "total_hidden",
        "total_rechained",
        "total_swept",
        "_population",
        "_obs",
        "_node",
        "_m_sweep_frac",
    )

    def __init__(self, *, obs=None, node: str = "") -> None:
        self._chains: list[list[LocationObject]] = [[] for _ in range(WINDOW_COUNT)]
        #: The window clock; monotonically increasing tick count.
        self.t_w: int = 0
        #: Cumulative statistics for bench E5.
        self.total_hidden = 0
        self.total_rechained = 0
        self.total_swept = 0
        #: Incrementally maintained chained-object count; keeps
        #: :meth:`population` O(1) (cross-checked by check_invariants).
        self._population = 0
        # Observability (repro.obs): the cumulative totals above exported
        # as counters, a sweep-fraction histogram, and an eviction-
        # interference annotation on any resolution trace in flight for a
        # path the sweep hides.
        self._obs = obs
        self._node = node
        if obs is not None:
            obs.metrics.pull(
                self,
                counters=[
                    ("evict_hidden_total", "total_hidden"),
                    ("evict_rechained_total", "total_rechained"),
                    ("evict_swept_total", "total_swept"),
                    ("evict_ticks_total", "t_w"),
                ],
                node=node,
            )
            self._m_sweep_frac = obs.metrics.histogram("evict_sweep_fraction", node=node)

    @property
    def current_window(self) -> int:
        """``T_w mod 64`` — the window new objects are stamped with."""
        return self.t_w % WINDOW_COUNT

    def chain_len(self, window: int) -> int:
        return len(self._chains[window])

    def population(self) -> int:
        """Total objects physically chained across all windows — O(1)."""
        return self._population

    # -- object placement -----------------------------------------------------

    def add(self, obj: LocationObject) -> None:
        """Stamp *obj* with the current window and chain it there."""
        w = self.current_window
        obj.t_a = w
        obj.chain_window = w
        self._chains[w].append(obj)
        self._population += 1

    def refresh(self, obj: LocationObject) -> None:
        """Renew *obj*'s lifetime without re-chaining it.

        "Even though T_a is updated, the location object is not placed in
        the corresponding window chain ... the task is left to a future
        thread" (§III-C1).  Only ``t_a`` changes; ``chain_window`` keeps
        recording the physical location so tests can observe the deferral.
        """
        obj.t_a = self.current_window

    def unchain(self, obj: LocationObject) -> bool:
        """Remove *obj* from its physical chain (used by explicit removal)."""
        w = obj.chain_window
        if w < 0:
            return False
        chain = self._chains[w]
        for pos, candidate in enumerate(chain):
            if candidate is obj:
                chain[pos] = chain[-1]
                chain.pop()
                obj.chain_window = -1
                self._population -= 1
                return True
        return False

    # -- the clock ---------------------------------------------------------

    def tick(self) -> TickResult:
        """Advance ``T_w`` and sweep the expiring window's chain.

        For each object physically chained in the new window:

        * ``t_a == window``  → its lifetime is up: hide it (logical
          eviction) and report it for background physical removal;
        * ``t_a != window``  → it was refreshed since being chained here:
          move it to chain ``t_a`` (the deferred re-chaining);
        * already hidden     → it was explicitly invalidated earlier; report
          it for removal too so its storage gets recycled.

        The returned :class:`TickResult` carries the hidden objects; the
        cache feeds them to its background-removal step.  The sweep itself
        never touches the hash table, mirroring "physical removal is a
        background task [with] minimal interference with cache look-ups".
        """
        self.t_w += 1
        window = self.current_window
        chain = self._chains[window]
        result = TickResult(window=window)
        population_before = self._population
        survivors: list[LocationObject] = []
        for obj in chain:
            result.swept += 1
            if obj.hidden or obj.t_a == window:
                if not obj.hidden:
                    obj.hide()
                    result.newly_hidden += 1
                obj.chain_window = -1
                result.hidden.append(obj)
            else:
                self._chains[obj.t_a].append(obj)
                obj.chain_window = obj.t_a
                result.rechained += 1
        # Survivors all moved elsewhere or were hidden; the chain empties.
        self._chains[window] = survivors
        self._population -= len(result.hidden)
        self.total_hidden += len(result.hidden)
        self.total_rechained += result.rechained
        self.total_swept += result.swept
        if self._obs is not None:
            if population_before:
                # The paper's ~1.6% claim: fraction of the cache one tick touched.
                self._m_sweep_frac.record(result.swept / population_before)
            tracer = self._obs.tracer
            for obj in result.hidden:
                # Eviction interference: a lookup racing the sweep sees its
                # object vanish mid-resolution — make that visible.
                tracer.event(obj.key, "evict.hidden", node=self._node, window=window)
        return result

    def check_invariants(self) -> None:
        """Every chained object's ``chain_window`` must match its chain.

        Raises :class:`~repro.analysis.violations.WindowAccountingViolation`
        (an ``AssertionError`` subclass) naming the object and windows.
        """
        seen: dict[int, int] = {}
        for w, chain in enumerate(self._chains):
            for obj in chain:
                if obj.chain_window != w:
                    raise WindowAccountingViolation(
                        "chain_window disagrees with physical chain",
                        invariant="chain-window",
                        path=obj.key,
                        chain_window=obj.chain_window,
                        chained_in=w,
                    )
                if id(obj) in seen:
                    raise WindowAccountingViolation(
                        "object chained twice",
                        invariant="single-chain",
                        path=obj.key,
                        windows=(seen[id(obj)], w),
                    )
                seen[id(obj)] = w
        if len(seen) != self._population:
            raise WindowAccountingViolation(
                "incremental population counter out of sync",
                invariant="population-sync",
                counter=self._population,
                chained=len(seen),
            )
