"""SimSan — the runtime invariant sanitizer for the cluster simulation.

Static analysis (:mod:`repro.analysis.lint`) catches code that *could*
corrupt the simulation; SimSan catches state that *did*.  When
``ScallaConfig.sanitize`` is on, every manager/supervisor cmsd owns a
:class:`Sanitizer` and sweeps it

* after each eviction tick plus its background-removal batch,
* after each cache mutation batch (a server response and the waiter
  releases it triggers), and
* after each fast-response-queue expiry pass.

A sweep walks every location object in the node's cache and cross-checks
the structures against each other: vector disjointness (``V_q`` against
``V_h | V_p`` and ``V_h`` against ``V_p``), the 80% load-factor bound that
must hold after every completed table operation, window-slot accounting
(every chained object in the right chain, chained exactly once, every
visible object chained somewhere, every chained object still in the
table), connection-counter ordering (``C[i] <= N_c``, distinct positive
stamps, no object snapshot from the future), and response-queue anchor
accounting (free/active partition the anchor array, every in-use anchor is
reachable from the expiry timeline with a matching stamp — an unreachable
anchor would never expire, the exact leak the 133 ms clock exists to
prevent — and carries at least one waiter), plus late-response parking
accounting (no empty or already-released entries in the parked registry).

Sweeps are pure reads: no RNG, no events, no mutation.  Turning SimSan on
changes *nothing* about a run except wall-clock cost, so a sanitized run
produces bit-identical event streams to an unsanitized one — which the
determinism harness (:mod:`repro.analysis.determinism`) relies on.

All failures raise the typed errors of :mod:`repro.analysis.violations`
(``AssertionError`` subclasses) tagged with the owning node's name.
"""

from __future__ import annotations

from repro.analysis.violations import (
    AnchorLeakViolation,
    CorrectionCounterViolation,
    InvariantViolation,
    VectorInvariantViolation,
)
from repro.core import bitvec
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.core.location import LocationObject
from repro.core.response_queue import ResponseQueue

__all__ = ["Sanitizer"]


class Sanitizer:
    """Runtime invariant sweeper for one node's cache/queue/membership.

    Stateless apart from counters; one instance per sanitized cmsd.  The
    ``sweeps`` / ``objects_checked`` counters let tests assert that
    sanitization actually ran (a sanitizer that never sweeps would pass
    every suite).
    """

    def __init__(self, *, node: str = "") -> None:
        self.node = node
        #: Number of full sweeps performed.
        self.sweeps = 0
        #: Location objects individually checked across all sweeps.
        self.objects_checked = 0

    # -- entry points -----------------------------------------------------

    def sweep(
        self,
        cache: NameCache | None = None,
        rq: ResponseQueue | None = None,
        membership: ClusterMembership | None = None,
    ) -> None:
        """Full consistency sweep over whatever structures are passed."""
        self.sweeps += 1
        if membership is None and cache is not None:
            membership = cache.membership
        if membership is not None:
            self.check_membership(membership)
        if cache is not None:
            self.check_cache(cache)
        if rq is not None:
            self.check_queue(rq)

    def check_object(self, obj: LocationObject) -> None:
        """Per-object vector invariants, including ``V_h & V_p == 0``."""
        self.objects_checked += 1
        try:
            obj.check_invariants()
        except InvariantViolation as exc:
            raise self._tag(exc) from None
        if obj.v_h & obj.v_p != 0:
            raise VectorInvariantViolation(
                "v_h overlaps v_p (a server cannot hold and stage at once)",
                invariant="vh-vp-disjoint",
                node=self.node,
                path=obj.key,
                v_h=f"{obj.v_h:#x}",
                v_p=f"{obj.v_p:#x}",
            )

    # -- structure checks -------------------------------------------------

    def check_cache(self, cache: NameCache) -> None:
        """Table, windows, load factor, and cross-structure accounting."""
        try:
            # Covers bucket placement, count sync, Fibonacci size, the 80%
            # load-factor bound, chain_window/chain agreement, double
            # chaining, and visible-objects-have-a-window.
            cache.check_invariants()
        except InvariantViolation as exc:
            raise self._tag(exc) from None
        table_ids = set()
        for obj in cache.table:
            table_ids.add(id(obj))
            if not obj.hidden:
                self.check_object(obj)
                if obj.c_n > cache.membership.n_c:
                    raise CorrectionCounterViolation(
                        "cached C_n snapshot is from the future",
                        invariant="cn-order",
                        node=self.node,
                        path=obj.key,
                        c_n=obj.c_n,
                        n_c=cache.membership.n_c,
                    )
        # Every physically chained object must still be table storage: an
        # object leaves its window chain before (tick sweep) or at the same
        # step as (background removal) leaving the table, never after.
        for w in range(len(cache.windows._chains)):
            for obj in cache.windows._chains[w]:
                if id(obj) not in table_ids:
                    raise self._tag(
                        InvariantViolation(
                            "window-chained object is not in the hash table",
                            invariant="chain-table-sync",
                            path=obj.key,
                            window=w,
                        )
                    )

    def check_membership(self, membership: ClusterMembership) -> None:
        """Connection-clock and membership-mask consistency."""
        if membership.v_offline & ~membership.v_members & bitvec.FULL_MASK:
            raise self._tag(
                InvariantViolation(
                    "offline mask names unoccupied slots",
                    invariant="offline-subset",
                    v_offline=f"{membership.v_offline:#x}",
                    v_members=f"{membership.v_members:#x}",
                )
            )
        stamps: dict[int, int] = {}
        for i in range(bitvec.MAX_SERVERS):
            c_i = membership.c[i]
            if c_i > membership.n_c:
                raise CorrectionCounterViolation(
                    "slot counter exceeds master counter",
                    invariant="ci-order",
                    node=self.node,
                    slot=i,
                    c_i=c_i,
                    n_c=membership.n_c,
                )
            occupied = membership.slots[i] is not None
            if occupied != bool(membership.v_members & bitvec.bit(i)):
                raise self._tag(
                    InvariantViolation(
                        "v_members disagrees with slot occupancy",
                        invariant="members-mask",
                        slot=i,
                    )
                )
            if occupied:
                if c_i <= 0:
                    raise CorrectionCounterViolation(
                        "occupied slot never stamped a connection",
                        invariant="ci-stamped",
                        node=self.node,
                        slot=i,
                    )
                other = stamps.setdefault(c_i, i)
                if other != i:
                    raise CorrectionCounterViolation(
                        "two slots share one connection stamp",
                        invariant="ci-distinct",
                        node=self.node,
                        slots=(other, i),
                        stamp=c_i,
                    )

    def check_queue(self, rq: ResponseQueue) -> None:
        """Anchor free/active partition, timeline reachability, waiters."""
        anchors = rq._anchors  # None: a slot never taken yet
        in_use = [a for a in anchors if a is not None and a.in_use]
        if len(in_use) != rq._active:
            raise AnchorLeakViolation(
                "active count disagrees with in-use anchors",
                invariant="active-count",
                node=self.node,
                active=rq._active,
                in_use=len(in_use),
            )
        free = rq._free
        if len(free) != len(set(free)):
            raise AnchorLeakViolation(
                "free list holds duplicate anchor indices",
                invariant="free-distinct",
                node=self.node,
            )
        if len(free) + rq._active != len(anchors):
            raise AnchorLeakViolation(
                "free + active do not partition the anchor array",
                invariant="anchor-partition",
                node=self.node,
                free=len(free),
                active=rq._active,
                anchors=len(anchors),
            )
        for idx in free:
            if anchors[idx] is not None and anchors[idx].in_use:
                raise AnchorLeakViolation(
                    "in-use anchor sits on the free list",
                    invariant="free-in-use",
                    node=self.node,
                    anchor=idx,
                )
        # Reachability: an in-use anchor with no live timeline entry will
        # never be expired by the response clock — a waiter leak.
        reachable = set()
        for _enq, idx, stamp in rq._timeline:
            if anchors[idx].in_use and anchors[idx].stamp == stamp:
                reachable.add(idx)
        for a in in_use:
            if a.index not in reachable:
                raise AnchorLeakViolation(
                    "in-use anchor unreachable from the expiry timeline",
                    invariant="timeline-reach",
                    node=self.node,
                    anchor=a.index,
                    stamp=a.stamp,
                )
            if not a.waiters:
                raise AnchorLeakViolation(
                    "in-use anchor has no waiters",
                    invariant="anchor-waiters",
                    node=self.node,
                    anchor=a.index,
                )
        # Late-response parking: registry entries must hold waiters (empty
        # lists are deleted eagerly, a survivor means a purge bug) and a
        # parked waiter must still be awaiting its answer (server filled in
        # means on_late_response released it but left it parked — it could
        # be released a second time by the next late response).
        for (key, generation), entry in rq._parked.items():
            if not entry:
                raise AnchorLeakViolation(
                    "parked registry holds an empty waiter list",
                    invariant="parked-nonempty",
                    node=self.node,
                    path=key,
                    generation=generation,
                )
            for _purge_at, w in entry:
                if w.server != -1:
                    raise AnchorLeakViolation(
                        "released waiter still sits in the parked registry",
                        invariant="parked-unreleased",
                        node=self.node,
                        path=key,
                        generation=generation,
                        server=w.server,
                    )

    def check_subordinate(self, cmsd) -> None:
        """Re-home path invariants on a subordinate cmsd.

        A subordinate may be logged into several parents (manager
        replicas), but never into the *same* parent twice; its silence
        clocks and backoff state must only name current parents (a stale
        key would re-login to a host we already re-homed away from); and
        re-homing must never shrink the parent set or strand a node whose
        standby pool still has somewhere to point.
        """
        self.sweeps += 1
        parents = cmsd.parents
        if len(set(parents)) != len(parents):
            raise self._tag(
                InvariantViolation(
                    "subordinate logged into the same parent twice",
                    invariant="parents-distinct",
                    parents=parents,
                )
            )
        for key in cmsd._last_parent_ack:
            if key not in parents:
                raise self._tag(
                    InvariantViolation(
                        "silence clock names a node that is not a parent",
                        invariant="ack-keys-subset",
                        stale=key,
                        parents=parents,
                    )
                )
        for key in cmsd._relogin_state:
            if key not in parents:
                raise self._tag(
                    InvariantViolation(
                        "re-login backoff names a node that is not a parent",
                        invariant="relogin-keys-subset",
                        stale=key,
                        parents=parents,
                    )
                )
        if cmsd.standbys and not cmsd._standby_pool:
            raise self._tag(
                InvariantViolation(
                    "standby pool empty although standbys are configured",
                    invariant="standby-pool-nonempty",
                    standbys=cmsd.standbys,
                )
            )
        if not parents and cmsd._standby_pool:
            raise self._tag(
                InvariantViolation(
                    "subordinate has no parents while standbys remain",
                    invariant="parents-nonempty",
                    pool=cmsd._standby_pool,
                )
            )

    # -- internals --------------------------------------------------------

    def _tag(self, exc: InvariantViolation) -> InvariantViolation:
        """Attach this sanitizer's node name to *exc* (attribute only; the
        rendered message was built at raise time in node-agnostic core
        code, and rebuilding it would duplicate the prefix)."""
        if not exc.node:
            exc.node = self.node
        return exc
