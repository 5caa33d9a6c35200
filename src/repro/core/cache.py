"""The cmsd name cache.

:class:`NameCache` is the paper's primary artifact: the in-memory file
location cache every manager and supervisor cmsd runs (§III-A).  It wires
together

* the Fibonacci-sized, CRC32-keyed hash table (:mod:`repro.core.hashtable`),
* the 64-slot sliding-window eviction clock (:mod:`repro.core.eviction`),
* lazy accuracy corrections with the per-window ``V_wc``/``C_wn`` memo
  (:mod:`repro.core.corrections`),
* never-delete storage recycling with reference authenticators
  (:mod:`repro.core.refs`), and
* refresh processing with deferred re-chaining (§III-C1).

Time is an explicit parameter everywhere (``now`` in seconds); the window
clock advances only through :meth:`tick`, which the owner calls every
``lifetime / 64``.  This lets the same object run under wall-clock
microbenchmarks and under the discrete-event simulator unchanged.

The cache itself never performs I/O and never blocks: querying servers,
waiting for responses, and redirecting clients are the resolution driver's
job (:mod:`repro.cluster.cmsd` in the cluster layer).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.violations import LoadFactorViolation, WindowAccountingViolation
from repro.core import fibonacci
from repro.core.corrections import ClusterMembership, apply_corrections
from repro.core.crc32 import hash_name
from repro.core.eviction import DEFAULT_LIFETIME, WINDOW_COUNT, EvictionWindows, TickResult
from repro.core.hashtable import LocationTable
from repro.core.location import LocationObject
from repro.core.refs import CacheRef

__all__ = ["NameCache", "CacheStats"]


@dataclass
class CacheStats:
    """Counters the benchmarks and EXPERIMENTS.md read out."""

    lookups: int = 0
    hits: int = 0
    adds: int = 0
    refreshes: int = 0
    corrections: int = 0
    vwc_hits: int = 0
    vwc_misses: int = 0
    recycled: int = 0
    removed: int = 0
    holder_updates: int = 0
    stale_holder_updates: int = 0

    def snapshot(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(slots=True)
class _WindowMemo:
    """Per-window memoized correction vector (§III-A4's V_wc / C_wn).

    Applicable to a fetched object when the object was added in this window
    with the same pre-correction snapshot (``c_wn``) and the memo was
    computed against the current master counter (``n_c``).
    """

    c_wn: int
    n_c: int
    v_wc: int


class NameCache:
    """File-location cache of one cmsd over its ≤64 direct subordinates."""

    def __init__(
        self,
        membership: ClusterMembership | None = None,
        *,
        lifetime: float = DEFAULT_LIFETIME,
        initial_size: int | None = None,
        window_memo: bool = True,
        obs=None,
        node: str = "",
    ) -> None:
        """*window_memo* disables the per-window V_wc/C_wn memoization when
        False — an ablation knob for bench F3; production cmsd always
        memoizes.  *obs* (a :class:`repro.obs.Observability`) exports
        :attr:`stats` and the population as metric series and turns on
        resolution-trace annotations."""
        self.membership = membership if membership is not None else ClusterMembership()
        self.table = LocationTable(initial_size)
        self.windows = EvictionWindows(obs=obs, node=node)
        self.lifetime = float(lifetime)
        self.stats = CacheStats()
        self._obs = obs
        self._node = node
        if obs is not None:
            obs.metrics.pull(
                self,
                counters=[
                    ("cache_lookups_total", "stats.lookups"),
                    ("cache_hits_total", "stats.hits"),
                    ("cache_adds_total", "stats.adds"),
                    ("cache_corrections_total", "stats.corrections"),
                    ("cache_vwc_hits_total", "stats.vwc_hits"),
                    ("cache_vwc_misses_total", "stats.vwc_misses"),
                    ("cache_stale_holder_updates_total", "stats.stale_holder_updates"),
                    ("cache_holder_updates_total", "stats.holder_updates"),
                    ("cache_removed_total", "stats.removed"),
                ],
                gauges=[("cache_population", lambda cache: cache.windows.population())],
                node=node,
            )
        self._free: list[LocationObject] = []
        #: Incrementally maintained count of findable objects; keeps
        #: :meth:`live_count` O(1) (cross-checked by check_invariants).
        self._live = 0
        #: (object, generation-at-queue-time); the stamp detects entries
        #: whose storage was recycled before this entry was processed.
        self._pending_removal: deque[tuple[LocationObject, int]] = deque()
        self._wmemo: list[_WindowMemo | None] = [None] * WINDOW_COUNT
        self.window_memo = window_memo
        #: Objects ever allocated (never shrinks — storage is never freed).
        self.allocated = 0

    # -- sizing -------------------------------------------------------------

    @property
    def tick_interval(self) -> float:
        """Seconds between window ticks: ``L_t / 64``."""
        return self.lifetime / WINDOW_COUNT

    def live_count(self) -> int:
        """Number of findable (non-hidden) location objects — O(1).

        Maintained incrementally: +1 on add, -1 when an object is hidden
        (sweep or explicit invalidate).  The full ``visible()`` scan this
        replaced is still run — as a cross-check — by
        :meth:`check_invariants`.
        """
        return self._live

    # -- the resolution-facing API ------------------------------------------------

    def lookup(self, path: str, now: float, *, add: bool = True) -> tuple[CacheRef | None, bool]:
        """Fetch (and by default create) the location object for *path*.

        Returns ``(ref, is_new)``.  On a hit the object's vectors are
        corrected in place (V_m mask, connection-counter correction with the
        window memo, offline→V_q migration) before the reference is handed
        out — cached information is only ever corrected "when it is
        fetched".  On a miss with ``add=True`` a fresh object is created
        with ``V_q = V_m`` (every eligible server still needs querying).

        ``(None, False)`` is returned on a miss with ``add=False``.
        """
        self.stats.lookups += 1
        v_m = self.membership.eligible(path)
        h = hash_name(path)
        obj = self.table.find(path, h)
        if self._obs is not None:
            self._obs.tracer.event(
                path, "cache.lookup", node=self._node, hit=obj is not None, add=add
            )
        if obj is not None:
            self.stats.hits += 1
            self._correct(obj, v_m)
            return CacheRef(obj=obj, generation=obj.generation, key=path, hash_val=h), False
        if not add:
            return None, False
        obj = self._allocate()
        obj.assign(path, h, self.membership.n_c, self.windows.current_window)
        obj.v_q = v_m
        self.windows.add(obj)
        self.table.insert(obj)
        self._live += 1
        self.stats.adds += 1
        return CacheRef(obj=obj, generation=obj.generation, key=path, hash_val=h), True

    def revalidate(self, ref: CacheRef) -> CacheRef | None:
        """Re-resolve a stale reference by full lookup (the rare fall-back).

        Returns a fresh valid reference, or None when no visible object for
        the key exists anymore — the caller then asks the client to retry
        "so that processing can restart from a consistent state".
        """
        if ref.valid:
            return ref
        obj = self.table.find(ref.key, ref.hash_val)
        if obj is None:
            return None
        return CacheRef(obj=obj, generation=obj.generation, key=ref.key, hash_val=ref.hash_val)

    def update_holder(
        self,
        path: str,
        hash_val: int,
        server: int,
        *,
        pending: bool = False,
    ) -> LocationObject | None:
        """Record a server's positive response (it has / is staging *path*).

        The responder streamed the name *and* the hash key along (§III-B1),
        so no rehash happens here.  Returns the updated object, or None when
        the object aged out before the answer arrived (the response is then
        simply dropped; a later client will re-query).
        """
        obj = self.table.find(path, hash_val)
        if obj is None:
            self.stats.stale_holder_updates += 1
            return None
        obj.set_holder(server, pending=pending)
        self.stats.holder_updates += 1
        return obj

    def refresh(self, ref: CacheRef, now: float) -> CacheRef | None:
        """Refresh a location object after a client reported mis-vectoring.

        "A location object refresh is logically treated as a new un-cached
        request ... the overhead of placing the location object in the cache
        is eliminated" (§III-C1): vectors reset so every eligible server is
        re-queried, ``T_a`` renews the lifetime, but the object is *not*
        re-chained — the next purge of its old window chain will move it
        (deferred re-chaining).
        """
        live = self.revalidate(ref)
        if live is None:
            return None
        obj = live.obj
        v_m = self.membership.eligible(ref.key)
        obj.v_h = 0
        obj.v_p = 0
        obj.v_q = v_m
        obj.c_n = self.membership.n_c
        obj.deadline = 0.0
        self.windows.refresh(obj)
        self.stats.refreshes += 1
        return live

    def invalidate(self, ref: CacheRef) -> bool:
        """Explicitly hide an object (e.g. after a verified deletion).

        Physical removal still happens in the background step, keeping the
        lookup path undisturbed.
        """
        if not ref.valid:
            return False
        obj = ref.obj
        # A valid ref implies the object is visible (hide bumps the
        # generation), so this always uncounts exactly one live object.
        obj.hide()
        self._live -= 1
        self._pending_removal.append((obj, obj.generation))
        return True

    # -- clocking ---------------------------------------------------------

    def tick(self) -> TickResult:
        """Advance the window clock; hide the expiring window's objects.

        The hidden objects are queued for :meth:`run_background_removal`.
        Also drops any window memo for the recycled window — its identity
        changes once new objects start landing in it.
        """
        result = self.windows.tick()
        self._live -= result.newly_hidden
        self._pending_removal.extend((obj, obj.generation) for obj in result.hidden)
        self._wmemo[result.window] = None
        return result

    def run_background_removal(self, limit: int | None = None) -> int:
        """Physically unchain up to *limit* hidden objects; recycle storage.

        This is the paper's background job.  Storage goes to the free list
        — "once a location object is created it is never deleted though its
        storage area can be reused".
        """
        removed = 0
        while self._pending_removal and (limit is None or removed < limit):
            obj, gen = self._pending_removal.popleft()
            if obj.generation != gen:
                continue  # storage already recycled; this entry is moot
            if self.table.remove(obj):
                self.windows.unchain(obj)
                self._free.append(obj)
                removed += 1
        self.stats.removed += removed
        return removed

    @property
    def pending_removals(self) -> int:
        return len(self._pending_removal)

    # -- internals ---------------------------------------------------------

    def _allocate(self) -> LocationObject:
        if self._free:
            self.stats.recycled += 1
            return self._free.pop()
        self.allocated += 1
        return LocationObject()

    def _correct(self, obj: LocationObject, v_m: int) -> None:
        """Apply Figure-3 corrections, consulting the window V_wc memo."""
        v_c = None
        memo_window = obj.t_a
        if obj.c_n != self.membership.n_c:
            memo = self._wmemo[memo_window] if self.window_memo else None
            if memo is not None and memo.c_wn == obj.c_n and memo.n_c == self.membership.n_c:
                v_c = memo.v_wc
                self.stats.vwc_hits += 1
            else:
                v_c = self.membership.connected_since(obj.c_n)
                if self.window_memo:
                    self._wmemo[memo_window] = _WindowMemo(
                        c_wn=obj.c_n, n_c=self.membership.n_c, v_wc=v_c
                    )
                self.stats.vwc_misses += 1
        if apply_corrections(obj, self.membership, v_m, v_c=v_c):
            self.stats.corrections += 1
            if self._obs is not None:
                self._obs.tracer.event(
                    obj.key, "cache.correct", node=self._node, v_q=obj.v_q, v_h=obj.v_h
                )

    def check_invariants(self) -> None:
        """Cross-structure consistency: table, windows, vector invariants.

        Raises typed :mod:`repro.analysis.violations` errors (all
        ``AssertionError`` subclasses).  SimSan calls this after every tick
        and mutation batch when ``ScallaConfig.sanitize`` is on.
        """
        visible = 0

        def _check(obj: LocationObject) -> None:
            # One table walk covers the per-object vector invariants, the
            # visible-chained check (formerly a second visible() pass) and
            # the live-counter cross-check.
            nonlocal visible
            if obj.hidden:
                return
            visible += 1
            obj.check_invariants()
            if not 0 <= obj.chain_window < WINDOW_COUNT:
                raise WindowAccountingViolation(
                    "visible object not chained in any eviction window",
                    invariant="visible-chained",
                    path=obj.key,
                    chain_window=obj.chain_window,
                )

        self.table.check_invariants(on_object=_check)
        self.windows.check_invariants()
        # Growth runs *before* the triggering insert, so the 80% bound holds
        # after every completed operation.
        if self.table.count > self.table.size * fibonacci.GROWTH_THRESHOLD:
            raise LoadFactorViolation(
                "table over the 80% growth threshold",
                invariant="load-factor",
                count=self.table.count,
                size=self.table.size,
            )
        # Counter cross-check last: structural violations above are the
        # root cause when both fire (e.g. objects spliced in behind the
        # cache's back), and they carry the more actionable context.
        if visible != self._live:
            raise WindowAccountingViolation(
                "incremental live counter out of sync",
                invariant="live-count-sync",
                counter=self._live,
                visible=visible,
            )
