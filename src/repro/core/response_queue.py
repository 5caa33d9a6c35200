"""The fast response queue.

Scalla's request-rarely-respond protocol treats silence as "I don't have the
file", which forces a conservative full wait (default 5 s) before declaring
non-existence.  For files that *do* exist somewhere, waiting 5 s would be
absurd when servers typically answer within ~100 µs.  The fast response
queue (§III-B) closes that gap:

* "The response queue is simply an array of 1024 anchors for a list of
  response objects and the corresponding cache entry."  The array keeps
  its 1024 slots and its free list, but each anchor object is built the
  first time its slot is taken, so an idle queue holds just its two lists.
* A location object carries two slot indices, ``R_r`` (readers) and ``R_w``
  (writers).
* The queue is **loosely coupled** to the cache: a slot may be reclaimed
  asynchronously without fixing up the location object's reference; validity
  is re-checked (stamps) whenever the reference is about to be used.
* A dedicated clock removes any request older than one 133 ms period; such
  clients fall back to the full 5 s wait-and-retry.  A server response
  arriving within the period releases all waiting clients immediately.

One extension beyond the paper, inert while no response arrives late:

* **Late-response reconciliation** — waiters expired into the full
  conservative delay are *parked* (per location key + generation) for up
  to ``park_ttl`` seconds.  A response arriving after the window closed —
  exactly what an 80 ms WAN hop produces against a 133 ms window — reaches
  them through :meth:`on_late_response` instead of evaporating, so the
  host can release clients otherwise condemned to sit out the full 5 s.

This module is thread-free and clock-agnostic like the rest of
:mod:`repro.core`: the host calls :meth:`ResponseQueue.expire` from whatever
plays the role of the response thread (a timed kernel callback in the
cluster layer).  The host also knows whether that thread is idle, so
:meth:`ResponseQueue.add_waiter` only says whether the waiter was accepted;
the paper's "the notification is only performed if the queue was empty"
is the host waking its parked clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.core.location import NO_QUEUE, LocationObject

__all__ = [
    "AccessMode",
    "Waiter",
    "ResponseQueue",
    "DEFAULT_ANCHORS",
    "DEFAULT_PERIOD",
    "DEFAULT_PARK_TTL",
]

#: Number of anchors in the response queue (paper: 1024).
DEFAULT_ANCHORS = 1024

#: Fast-response clocking period in seconds (paper: 133 ms).
DEFAULT_PERIOD = 0.133

#: How long expired waiters stay parked for late-response release.  The
#: paper's full delay: past that the client has retried anyway.
DEFAULT_PARK_TTL = 5.0


class AccessMode:
    """The two access modes distinguished by the queue (``R_r`` / ``R_w``)."""

    READ = "r"
    WRITE = "w"


@dataclass
class Waiter:
    """One client waiting for a location answer.

    ``payload`` is opaque to the queue — the cluster layer stores whatever
    it needs to wake the client (a sim event, a callback, a request id).
    ``server`` is filled in when a response releases the waiter; it stays
    -1 on timeout.
    """

    payload: Any
    enqueued_at: float
    mode: str
    server: int = -1


@dataclass
class _Anchor:
    index: int
    stamp: int = 0
    in_use: bool = False
    loc: LocationObject | None = None
    loc_generation: int = -1
    mode: str = AccessMode.READ
    waiters: list[Waiter] = field(default_factory=list)

    def reclaim(self) -> list[Waiter]:
        """Free the anchor, invalidating every outstanding reference to it."""
        waiters, self.waiters = self.waiters, []
        self.stamp += 1
        self.in_use = False
        self.loc = None
        self.loc_generation = -1
        return waiters


class ResponseQueue:
    """The 1024-anchor fast response queue with 133 ms expiry clocking."""

    def __init__(
        self,
        anchors: int = DEFAULT_ANCHORS,
        period: float = DEFAULT_PERIOD,
        *,
        park_ttl: float = DEFAULT_PARK_TTL,
        obs=None,
        node: str = "",
    ) -> None:
        if anchors < 1:
            raise ValueError("need at least one anchor")
        #: Anchor slots, each built the first time its index leaves the
        #: free list (None until then): most supervisors never hold more
        #: than a few requests in flight, so most of the 1024 never exist.
        self._anchors: list[_Anchor | None] = [None] * anchors
        self._free: list[int] = list(range(anchors - 1, -1, -1))
        #: Expiry heap: (absolute expiry time, anchor index, stamp).  Expiries
        #: arrive in order, but anchors opened at one instant must expire in
        #: index order, not opening order (a deque would reorder their Waits).
        self._timeline: list[tuple[float, int, int]] = []
        self.period = period
        #: Late-response parking: (loc key, loc generation) -> parked
        #: waiters, each carried with its purge deadline.  ``park_ttl <= 0``
        #: disables parking (the paper's discard-on-expiry behaviour).
        self.park_ttl = park_ttl
        self._parked: dict[tuple[str, int], list[tuple[float, Waiter]]] = {}
        self._park_order: list[tuple[float, str, int]] = []
        self._active = 0
        # Statistics surfaced by bench E6 / E6-wan.
        self.enqueued = 0
        self.fast_responses = 0
        self.timeouts = 0
        self.rejected = 0
        self.late_responses = 0
        # Observability (repro.obs): the statistics above exported as
        # series, plus an anchor-wait histogram sampled on every release.
        self._obs = obs
        if obs is not None:
            obs.metrics.pull(
                self,
                counters=[
                    ("rq_enqueued_total", "enqueued"),
                    ("rq_rejected_total", "rejected"),
                    ("rq_released_total", "fast_responses"),
                    ("rq_expired_total", "timeouts"),
                    ("rq_late_responses_total", "late_responses"),
                ],
                gauges=[("rq_active_anchors", "active_anchors")],
                node=node,
            )
            self._m_wait = obs.metrics.histogram("rq_wait_seconds", node=node)

    # -- introspection ---------------------------------------------------------

    @property
    def active_anchors(self) -> int:
        return self._active

    def pending_waiters(self) -> int:
        return sum(len(a.waiters) for a in self._anchors if a is not None and a.in_use)

    def parked_waiters(self) -> int:
        """Expired waiters still eligible for late-response release."""
        return sum(len(entry) for entry in self._parked.values())

    # -- enqueue ---------------------------------------------------------------

    def add_waiter(self, loc: LocationObject, mode: str, payload: Any, now: float) -> bool:
        """Queue a client for the answer to *loc* under *mode*; False when
        all anchors are busy, and the paper's fallback applies ("the client
        is asked to wait a full time period and retry").

        Joins the location object's existing anchor when its reference is
        still valid; otherwise takes a fresh anchor and records the
        association in the location object (``R_r`` or ``R_w``).  A fresh
        anchor expires one period after it opens; a join leaves that expiry
        alone, since extending it per joiner would starve the expiry sweep.
        """
        anchor = self._valid_anchor(loc, mode)
        if anchor is None:
            if not self._free:
                self.rejected += 1
                return False
            idx = self._free.pop()
            anchor = self._anchors[idx]
            if anchor is None:
                anchor = self._anchors[idx] = _Anchor(index=idx)
            anchor.in_use = True
            anchor.loc = loc
            anchor.loc_generation = loc.generation
            anchor.mode = mode
            self._active += 1
            heapq.heappush(self._timeline, (now + self.period, anchor.index, anchor.stamp))
            self._associate(loc, mode, anchor)
        anchor.waiters.append(Waiter(payload=payload, enqueued_at=now, mode=mode))
        self.enqueued += 1
        return True

    # -- release paths ---------------------------------------------------------

    def on_response(
        self,
        loc: LocationObject,
        server: int,
        *,
        write_capable: bool,
        now: float | None = None,
    ) -> list[Waiter]:
        """Release waiters of *loc* now that *server* reported having it.

        Readers are always releasable; writers only when the responding
        server grants write access ("the access mode the server allows").
        Returns the released waiters with ``server`` filled in; the caller
        (the response thread in the paper) delivers the redirects.

        *now* is only consumed by observability (anchor-wait histograms);
        instrumented callers pass the current time, others may omit it.
        """
        released: list[Waiter] = []
        modes = [AccessMode.READ] + ([AccessMode.WRITE] if write_capable else [])
        for mode in modes:
            anchor = self._valid_anchor(loc, mode)
            if anchor is None:
                continue
            for w in anchor.waiters:
                w.server = server
                released.append(w)
            anchor.reclaim()
            self._active -= 1
            self._free.append(anchor.index)
            self._dissociate(loc, mode)
        self.fast_responses += len(released)
        if now is not None:
            self._record_waits(released, now)
        return released

    def on_late_response(
        self,
        loc: LocationObject,
        server: int,
        *,
        write_capable: bool,
        now: float,
    ) -> list[Waiter]:
        """Release *parked* waiters of *loc*: the response beat the full delay.

        The anchor these waiters sat on expired (and has very likely been
        reclaimed, restamped, and reused for some other file — parking is
        keyed by location key + generation precisely so anchor reuse cannot
        misroute a late answer).  Read-only responses leave parked writers
        in place for a later write-capable answer; duplicate late responses
        find the parking slot empty and release nothing.
        """
        key = (loc.key, loc.generation)
        entry = self._parked.get(key)
        if not entry:
            return []
        released: list[Waiter] = []
        kept: list[tuple[float, Waiter]] = []
        for purge_at, w in entry:
            if purge_at <= now:
                continue  # past the park TTL: the client has retried already
            if w.mode == AccessMode.WRITE and not write_capable:
                kept.append((purge_at, w))
                continue
            w.server = server
            released.append(w)
        if kept:
            self._parked[key] = kept
        else:
            del self._parked[key]
        self.late_responses += len(released)
        self._record_waits(released, now)
        return released

    def expire(self, now: float) -> list[Waiter]:
        """Remove every anchor past its window; return its waiters.

        Implements the response thread's clocking: "any request that has
        been in the queue for longer than 133 ms is removed and the cache
        association is invalidated".  Expired waiters keep ``server == -1``
        — the caller imposes the full 5 s wait-and-retry on them — but stay
        parked for :meth:`on_late_response` until ``park_ttl`` passes.
        """
        self._purge_parked(now)
        expired: list[Waiter] = []
        while self._timeline and self._timeline[0][0] <= now:
            _expiry, idx, stamp = heapq.heappop(self._timeline)
            anchor = self._anchors[idx]
            if not anchor.in_use or anchor.stamp != stamp:
                continue  # already released by a response
            loc, mode = anchor.loc, anchor.mode
            waiters = anchor.reclaim()
            expired.extend(waiters)
            self._active -= 1
            self._free.append(anchor.index)
            if loc is not None:
                self._dissociate(loc, mode)
                if self.park_ttl > 0 and waiters:
                    self._park(loc, waiters, now)
        self.timeouts += len(expired)
        self._record_waits(expired, now)
        return expired

    def next_expiry(self) -> float | None:
        """Earliest time an active anchor can expire, or None when idle."""
        while self._timeline:
            expiry, idx, stamp = self._timeline[0]
            anchor = self._anchors[idx]
            if anchor.in_use and anchor.stamp == stamp:
                return expiry
            heapq.heappop(self._timeline)
        return None

    # -- late-response parking ---------------------------------------------------

    def _record_waits(self, waiters: list[Waiter], now: float) -> None:
        """Sample each departing waiter's anchor wait (observability only)."""
        if self._obs is not None:
            for w in waiters:
                self._m_wait.record(now - w.enqueued_at)

    def _park(self, loc: LocationObject, waiters: list[Waiter], now: float) -> None:
        key = (loc.key, loc.generation)
        purge_at = now + self.park_ttl
        entry = self._parked.setdefault(key, [])
        for w in waiters:
            entry.append((purge_at, w))
        heapq.heappush(self._park_order, (purge_at, loc.key, loc.generation))

    def _purge_parked(self, now: float) -> None:
        while self._park_order and self._park_order[0][0] <= now:
            _purge_at, key, generation = heapq.heappop(self._park_order)
            entry = self._parked.get((key, generation))
            if not entry:
                self._parked.pop((key, generation), None)
                continue
            fresh = [(p, w) for (p, w) in entry if p > now]
            if fresh:
                self._parked[(key, generation)] = fresh
            else:
                del self._parked[(key, generation)]

    # -- association plumbing ----------------------------------------------------

    def _valid_anchor(self, loc: LocationObject, mode: str) -> _Anchor | None:
        """The anchor *loc* references for *mode*, iff still associated.

        This is the loose-coupling check: the slot index stored in the
        location object is trusted only when the anchor's stamp matches the
        stamp recorded at association time and the anchor still points back
        at this very object (same storage *and* same generation).
        """
        if mode == AccessMode.READ:
            idx, stamp = loc.rq_read, loc.rq_read_stamp
        else:
            idx, stamp = loc.rq_write, loc.rq_write_stamp
        if idx == NO_QUEUE:
            return None
        anchor = self._anchors[idx]
        if (
            anchor.in_use
            and anchor.stamp == stamp
            and anchor.loc is loc
            and anchor.loc_generation == loc.generation
            and anchor.mode == mode
        ):
            return anchor
        return None

    @staticmethod
    def _associate(loc: LocationObject, mode: str, anchor: _Anchor) -> None:
        if mode == AccessMode.READ:
            loc.rq_read, loc.rq_read_stamp = anchor.index, anchor.stamp
        else:
            loc.rq_write, loc.rq_write_stamp = anchor.index, anchor.stamp

    @staticmethod
    def _dissociate(loc: LocationObject, mode: str) -> None:
        if mode == AccessMode.READ:
            loc.rq_read = NO_QUEUE
        else:
            loc.rq_write = NO_QUEUE
