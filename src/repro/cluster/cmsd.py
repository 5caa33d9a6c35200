"""The cmsd cluster-management daemon.

One per node.  Its behaviour depends on the node's tree role:

* **manager / supervisor** — owns a :class:`~repro.core.cache.NameCache`
  over its ≤64 direct subordinates, answers ``Locate`` requests from
  clients, floods ``QueryFile`` down the tree, collects ``HaveFile``
  responses through the fast response queue, and redirects clients
  (§II-B2/B3, §III).
* **server** — answers ``QueryFile`` with ``HaveFile`` *only when the local
  xrootd actually has (or can stage) the file*; silence is the negative
  response (request-rarely-respond, §III-B).

Every cmsd below the root also runs the subordinate half: login to its
parents at start, heartbeats carrying load/space metrics, and automatic
re-login when a (state-less, restarted) parent stops recognizing it — the
mechanism behind "clusters of hundreds of nodes can begin to serve files
within seconds of restarting" (§V).

Messages are served by a message handler, not a process: the host hands
each arrival to :meth:`Cmsd._on_message`, which feeds a FIFO server — one
message in service at a time, each for a service time drawn from the
daemon's RNG as it enters service, the rest waiting in a backlog — and
:meth:`Cmsd._dispatch` acts on a message when its service ends.  Every
step is a kernel callback, so a protocol message costs one heap entry to
deliver and one to serve (except at a silent leaf, below).  The timers
are kernel callbacks too (:meth:`~repro.sim.kernel.Simulator.call_at`),
each re-arming itself:

    response clock   — the 133 ms fast-response expiry thread (§III-B)
    window tick      — L_t/64 cache eviction clock (§III-A3)
    heartbeat        — subordinate -> parents
    liveness sweep   — parent-side disconnect/drop timers (§III-A4)

A callback cannot be cancelled, so each carries the boot epoch it was
armed under; :meth:`Cmsd.stop` bumps the epoch and a stale callback does
nothing.

Silent leaves cost no events.  A server cmsd without an observability hub
registers an offer hook with the network (:meth:`Cmsd._offer`): a
``QueryFile`` copy it will not answer — neither its disk nor its MSS has
the path when the copy is sent — becomes a record ``(arrival, seq, src,
query, sent_at)`` in its inbox instead of two heap entries.  Nothing
observable happens when such a query is served, so the records wait until
something observable touches the leaf — a new record, any other message,
its heartbeat, a create/put/remove/archive/stage of its storage, a stop, a
network-state change or a stats read — and the leaf then catches up
(:meth:`Cmsd._catch_up`): it replays every record ordered before the
running heap entry through its FIFO server, with the same drop rules,
counts, RNG draws and service ends the eager path has.  A real message that
would queue behind record-served work, or a change that could turn a
pending query into an answer, hands the records back to the eager
machinery (:meth:`Cmsd._hand_off`).  A leaf with a hub stays eager, so the
tracer sees every ``server.silent`` in its span; obs-on runs are the
oracle the obs-off runs are checked against.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.simsan import Sanitizer
from repro.cluster import protocol as pr
from repro.cluster.config import ScallaConfig
from repro.cluster.ids import NodeId, Role, cmsd_host
from repro.cluster.xrootd import XrootdServer
from repro.core import bitvec
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.core.crc32 import hash_name
from repro.core.deadline import DeadlinePolicy
from repro.core.response_queue import DEFAULT_ANCHORS, AccessMode, ResponseQueue
from repro.core.selection import MostSpace, RoundRobin, ServerMetrics
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["CmsdStats", "ChildInfo", "Cmsd"]

#: Cap on the exponential re-login backoff (engaged when a parent is
#: silent and no standby exists — e.g. the parent is a manager the
#: subordinate is already fully connected to).
RELOGIN_BACKOFF_CAP = 30.0
#: Jitter fraction on re-login backoff delays (decorrelates a 64-wide
#: subtree re-discovering its parent at once).
RELOGIN_JITTER = 0.25
#: k in the adaptive window formula (see ScallaConfig.adaptive_window).
WINDOW_RTT_MULT = 3.0
#: EWMA smoothing factor for per-peer RTT estimates (fed from login /
#: heartbeat arrival latencies and observed query-response latencies).
RTT_ALPHA = 0.25
#: Bounded re-query (adaptive mode only): on window expiry with the
#: epoch deadline still active, re-flood the still-silent subset up to
#: this many times — each round's window scaled by REQUERY_BACKOFF and
#: capped at the epoch remainder — before the full-delay fallback.
REQUERY_LIMIT = 1
#: Window growth factor per re-query round.
REQUERY_BACKOFF = 2.0
#: Selection policy for read/write redirection, and for placing new
#: files.  Both are stateless (``choose`` keeps its state in the calling
#: cmsd's ServerMetrics), so every cmsd shares one of each.
READ_POLICY = RoundRobin()
CREATE_POLICY = MostSpace()

_heappush = heapq.heappush
_heappop = heapq.heappop
_QueryFile = pr.QueryFile


@dataclass
class CmsdStats:
    #: Every message this cmsd put on the wire.
    messages_sent: int = 0
    locates: int = 0
    #: Client redirects sent: direct verdicts plus waiters released by a
    #: Have (the latter also counted in ``released_redirects``).
    redirects: int = 0
    released_redirects: int = 0
    waits_sent: int = 0
    notfounds: int = 0
    queries_sent: int = 0
    haves_sent: int = 0
    haves_received: int = 0
    fast_released: int = 0
    #: Clients released by a response that arrived *after* its window
    #: expired (late-response reconciliation).
    late_released: int = 0
    #: Bounded re-query rounds issued on window expiry (adaptive mode).
    requeries: int = 0
    #: add_waiter rejections (anchor exhaustion): each one parked a client
    #: on the full conservative delay — visible anchor pressure, not noise.
    rq_rejected: int = 0
    logins_handled: int = 0
    #: Login messages sent upward, counted per parent send (a login to two
    #: managers counts twice — it is two wire messages).
    relogins_sent: int = 0
    #: The same, broken down by parent — lets the churn benches tell a
    #: healthy re-login from an orphan storm against one dead host.
    relogins_by_parent: dict[str, int] = field(default_factory=dict)
    #: Successful parent swaps (standby adoptions).
    rehomes: int = 0
    #: Cumulative time this subordinate spent with *every* parent silent
    #: past the re-login horizon (heartbeat-interval granularity).
    orphaned_seconds: float = 0.0
    prepares: int = 0
    refreshes: int = 0


@dataclass
class ChildInfo:
    """Parent-side metadata about one direct subordinate."""

    name: str
    role: Role
    last_seen: float = 0.0
    site: str = ""


@dataclass(frozen=True)
class _ClientWaiter:
    """Fast-response-queue payload for a waiting client.

    ``span`` is the open ``rq.wait`` trace span (None when tracing is off);
    whoever releases the waiter — a server response or the expiry clock —
    closes it with the outcome.
    """

    reply_to: str
    req_id: int
    path: str
    create: bool
    span: object = None


@dataclass(frozen=True)
class _ParentWaiter:
    """Fast-response-queue payload for a parent's pending QueryFile.

    On release the supervisor sends a single compressed ``HaveFile`` up —
    "multiple responses that are sent to a supervisor are compressed into a
    single response" (§II-B2).  On expiry nothing is sent: silence *is* the
    negative answer.
    """

    parent_host: str
    path: str
    hash_val: int


class _Inbox:
    """A silent leaf's records and its record-served FIFO (see
    :meth:`Cmsd._offer`).  The eager FIFO is idle while any is pending."""

    __slots__ = ("records", "item", "end", "seq", "backlog", "held", "watching")

    def __init__(self) -> None:
        #: Heap of (arrival, seq, src, msg, sent_at) still on the wire.
        self.records: list[tuple[float, int, str, object, float]] = []
        #: The query in service (msg, src, sent_at), its service end, and a
        #: lower bound on the seq that end would have had.
        self.item: tuple[object, str, float] | None = None
        self.end = 0.0
        self.seq = 0
        #: Arrived records waiting behind it, as ((msg, src, sent_at), seq);
        #: built the first time a record has to wait.
        self.backlog: deque[tuple[tuple[object, str, float], int]] | None = None
        #: True while the network holds our settle callback, and while our
        #: disk and MSS call our watcher.
        self.held = False
        self.watching = False

    @property
    def pending(self) -> bool:
        """True while a record is on the wire or a query is in service."""
        return bool(self.records) or self.item is not None


class Cmsd:
    """One node's cluster-management daemon."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: NodeId,
        *,
        parents: tuple[str, ...] = (),  # parent node names
        standbys: tuple[str | tuple[str, ...], ...] = (),  # failover parents, in order
        standby_pool: tuple[str | tuple[str, ...], ...] = (),  # re-home rotation
        exports: tuple[str, ...] = ("/store",),
        xrootd: XrootdServer | None = None,
        config: ScallaConfig | None = None,
        rng: random.Random | None = None,
        instance: int = 0,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.parents = parents
        self.standbys = standbys
        #: Re-home rotation (NodeSpec.standby_pool): the configured
        #: standbys (a name, or a tuple of peer parents adopted together),
        #: then the original parents.
        self._standby_pool = standby_pool
        self._standby_idx = 0
        self.exports = exports
        self.xrootd = xrootd
        self.config = config = config if config is not None else ScallaConfig()
        #: This role's per-message service model, bound once.
        self._service = (
            config.server_service if node_id.role is Role.SERVER else config.manager_service
        )
        self.rng = rng if rng is not None else random.Random(0)
        self.instance = instance
        self.host = network.hosts.get(node_id.cmsd) or network.add_host(node_id.cmsd)
        self.stats = CmsdStats()
        # Observability (repro.obs): the stats above, exported as series.
        self._obs = obs
        if obs is not None:
            obs.metrics.pull(
                self.stats,
                counters=[
                    ("cmsd_messages_sent_total", "messages_sent"),
                    ("cmsd_locate_requests_total", "locates"),
                    # Direct verdicts only; Have-released redirects are
                    # cmsd_fast_released_total.
                    ("cmsd_redirects_total", lambda s: s.redirects - s.released_redirects),
                    ("cmsd_waits_sent_total", "waits_sent"),
                    ("cmsd_notfounds_total", "notfounds"),
                    ("cmsd_queries_sent_total", "queries_sent"),
                    ("cmsd_haves_received_total", "haves_received"),
                    ("cmsd_fast_released_total", "fast_released"),
                    ("rq_requeries_total", "requeries"),
                    ("rehomes_total", "rehomes"),
                ],
                gauges=[("orphaned_subtree_seconds", "orphaned_seconds")],
                node=node_id.name,
            )

        if node_id.role is not Role.SERVER:
            self.membership = ClusterMembership(obs=obs, node=node_id.name)
            self.cache = NameCache(
                self.membership, lifetime=config.lifetime, obs=obs, node=node_id.name
            )
            self.rq = ResponseQueue(
                anchors=DEFAULT_ANCHORS,
                period=config.fast_period,
                park_ttl=config.full_delay if config.late_release else 0.0,
                obs=obs,
                node=node_id.name,
            )
            self.deadline = DeadlinePolicy(full_delay=config.full_delay)
            self.metrics = ServerMetrics()
            self.children: dict[str, ChildInfo] = {}
        else:
            self.membership = None
            self.cache = None
            self.rq = None
            self.deadline = None
            self.metrics = None
            self.children = {}
        # Every role gets a sanitizer: servers have no cache/queue, but
        # their subordinate half (parents, re-home state) is checkable.
        self.sanitizer = Sanitizer(node=node_id.name) if config.sanitize else None

        #: Boot epoch: bumped by :meth:`stop`; a timer callback armed under
        #: an older epoch does nothing.
        self._epoch = 0
        #: True while the response clock has an expiry (or a wake) pending,
        #: or is running; False while it is parked with no open anchor.
        self._rq_armed = False
        #: The FIFO server: the (msg, src, sent_at) in service (None when
        #: idle) and the arrivals waiting behind it (a deque built the
        #: first time a message has to wait).
        self._in_service: tuple[object, str, float] | None = None
        self._backlog: deque[tuple[object, str, float]] | None = None
        #: Silent leaves (module docstring): the records and the
        #: record-served FIFO, built by the first record a leaf takes.
        self._box: _Inbox | None = None
        self._last_parent_ack: dict[str, float] = {}
        #: Per-parent re-login backoff: parent -> (attempts, earliest next
        #: send).  Populated only while a parent is silent; cleared by the
        #: first ack.
        self._relogin_state: dict[str, tuple[int, float]] = {}
        self._query_serial = 0
        #: Per-child EWMA round-trip estimate (seconds), fed from the
        #: observed one-way delivery delay of logins/heartbeats/responses
        #: and from query-response latencies.  Sizes adaptive windows.
        self._peer_rtt: dict[str, float] = {}

        if node_id.role is Role.SERVER and xrootd is not None:
            # The "newfile" advisory hook: without it, a manager whose cache
            # already concluded "nobody has this file" would never learn the
            # file was just created (its V_q is empty, so nothing re-asks).
            xrootd.on_create_hooks.append(self._advertise_new_file)

    # -- lifecycle ---------------------------------------------------------

    @property
    def _silent_leaf(self) -> bool:
        """True for a server cmsd without a hub: it takes QueryFile copies
        it will not answer as records (see :meth:`_offer`)."""
        return self.node_id.role is Role.SERVER and self.xrootd is not None and self._obs is None

    def start(self) -> None:
        if self._silent_leaf:
            self.host.listen(self._on_leaf_message)
            self.network.set_offer(self.host.name, self._offer)
        else:
            self.host.listen(self._on_message)
        if self.rq is not None or self.parents:
            # Arm through one same-time callback, not here: a daemon
            # started while same-time work is still queued then arms
            # behind it, so at every later tie it fires after the daemons
            # already running.  Until then the response clock counts as
            # armed.
            self._rq_armed = True
            self.sim.call_at(self.sim.now, self._arm_timers, self._epoch)
        if self.parents:
            self._login_to_parents()

    def stop(self) -> None:
        """Drop the message in service and the backlog, and disarm the
        timers; later arrivals are dropped until :meth:`start`."""
        self.host.listen(None)
        self._in_service = None
        self._backlog = None
        self._epoch += 1
        if self._silent_leaf:
            self.network.set_offer(self.host.name, None)
            box = self._box
            if box is not None:
                self._watch(box, False)
                if box.pending:
                    # Like the eager FIFO: what arrived is lost, what is still
                    # on the wire arrives at a stopped (or dead) host.
                    self._catch_up()
                    box.item = None
                    box.backlog = None
                    self._redeliver(box)

    def _arm_timers(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        sim = self.sim
        now = sim.now
        if self.rq is not None:
            self._arm_response_clock(epoch)
            sim.call_at(now + self.cache.tick_interval, self._window_tick, epoch)
            sim.call_at(now + self.config.heartbeat_interval, self._liveness_sweep, epoch)
        if self.parents:
            sim.call_at(now + self.config.heartbeat_interval, self._heartbeat, epoch)

    # -- outbound helpers -----------------------------------------------------

    def _send(self, to: str, msg: object) -> None:
        self.stats.messages_sent += 1
        self.network.send(self.host.name, to, msg, size=pr.estimate_size(msg))

    def _login_to_parent(self, parent: str) -> None:
        msg = pr.Login(
            node=self.node_id.name,
            role=self.node_id.role.value,
            paths=self.exports,
            instance=self.instance,
        )
        self._send(cmsd_host(parent), msg)
        self.stats.relogins_sent += 1
        self.stats.relogins_by_parent[parent] = (
            self.stats.relogins_by_parent.get(parent, 0) + 1
        )
        # Start the silence clock at the login send: a parent that never
        # acks anything must still trip the re-login horizon (leaving the
        # clock unset made silent_for read as zero forever).
        self._last_parent_ack.setdefault(parent, self.sim.now)

    def _login_to_parents(self) -> None:
        for parent in self.parents:
            self._login_to_parent(parent)

    # -- subordinate half -----------------------------------------------------

    def _heartbeat(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        box = self._box
        if box is not None and box.pending:
            self._catch_up()  # a silent parent draws from our RNG below
        load = self.xrootd.load if self.xrootd is not None else 0.0
        space = self.xrootd.free_space if self.xrootd is not None else 0.0
        site = self.network.site_of(self.host.name) or ""
        hb = pr.Heartbeat(node=self.node_id.name, load=load, free_space=space, site=site)
        now = self.sim.now
        silent: list[str] = []
        for parent in tuple(self.parents):
            self._send(cmsd_host(parent), hb)
            last = self._last_parent_ack.get(parent, now)
            if now - last > self.config.relogin_timeout:
                silent.append(parent)
        if silent and len(silent) == len(self.parents):
            # Every parent unreachable: the whole subtree below us is
            # orphaned until a re-home or re-login lands.
            self.stats.orphaned_seconds += self.config.heartbeat_interval
        for parent in silent:
            self._handle_silent_parent(parent, now)
        if self.sanitizer is not None and self.parents:
            self.sanitizer.check_subordinate(self)
        self.sim.call_at(now + self.config.heartbeat_interval, self._heartbeat, epoch)

    def _handle_silent_parent(self, parent: str, now: float) -> None:
        """A parent blew the re-login horizon: re-home, or back off and
        re-login.

        Silence means no ``known=True`` heartbeat ack for
        ``relogin_timeout``: the parent is unreachable, or it answers but
        does not know us.  A restarted state-less parent learns us again
        from the re-login ``_on_heartbeat_ack`` sends on its first
        ``known=False`` ack, usually well inside the horizon; a full
        parent that keeps ignoring that login ends up here and is rotated
        away from.
        """
        attempts, next_at = self._relogin_state.get(parent, (0, 0.0))
        if now < next_at:
            return
        if self.config.rehome and self._rehome(parent, now):
            return
        # Nowhere to re-home (or re-homing disabled): keep re-introducing
        # ourselves, with capped jittered exponential backoff so a dead
        # manager is not buried under a 64-wide re-login storm when it
        # finally returns.
        self._login_to_parent(parent)
        delay = min(RELOGIN_BACKOFF_CAP, self.config.relogin_timeout * (2.0**attempts))
        delay *= 1.0 + RELOGIN_JITTER * self.rng.random()
        self._relogin_state[parent] = (attempts + 1, now + delay)

    def _rehome(self, dead_parent: str, now: float) -> bool:
        """Adopt the next standby group in place of *dead_parent*.

        Rotates through the standby pool — sibling supervisors first, then
        the grandparent/manager level, then the original parent again — and
        swaps the first group with a member we are not already logged into
        in place of the dead one, logging into every such member (all the
        peer managers at the top).  Each adopter treats our Login as an
        ordinary §III-A4 "server added" membership event (fresh slot,
        C-counter stamp), so every cached location above stays correctable
        with zero cache walks.  Returns False when there is nowhere to go
        (e.g. a top-level subordinate already logged into every manager).
        """
        pool = self._standby_pool
        if not pool:
            return False
        for _ in range(len(pool)):
            group = pool[self._standby_idx % len(pool)]
            self._standby_idx += 1
            if isinstance(group, str):
                group = (group,)
            joins = tuple(p for p in group if p != dead_parent and p not in self.parents)
            if joins:
                break
        else:
            return False
        self.parents = tuple(p for p in self.parents if p != dead_parent) + joins
        self._last_parent_ack.pop(dead_parent, None)
        self._relogin_state.pop(dead_parent, None)
        self.stats.rehomes += 1
        for parent in joins:
            self._login_to_parent(parent)
        if self._obs is not None:
            self._obs.tracer.cluster_event(
                "cmsd.rehome",
                time=now,
                node=self.node_id.name,
                old=dead_parent,
                new=", ".join(joins),
            )
        if self.sanitizer is not None:
            self.sanitizer.check_subordinate(self)
        return True

    # -- parent-side timers -----------------------------------------------------

    def _arm_response_clock(self, epoch: int) -> None:
        """Arm the expiry pass for the oldest open anchor, or park the
        clock when none is open (the next first waiter wakes it)."""
        if epoch != self._epoch:
            return
        nxt = self.rq.next_expiry() if self.rq.active_anchors else None
        if nxt is None:
            self._rq_armed = False
            return
        now = self.sim.now
        # The 1 µs slack guards against float round-off leaving the oldest
        # anchor infinitesimally younger than the cutoff, which would spin
        # the clock on zero-length waits.
        self.sim.call_at(now + (max(0.0, nxt - now) + 1e-6), self._response_clock, epoch)

    def _response_clock(self, epoch: int) -> None:
        """The fast-response 'thread': expire anchors past their window.

        An expired client waiter is, in order of preference: ridden through
        a bounded re-query round (adaptive mode, epoch still active), or
        told to wait the full delay — watched, so a late response can still
        turn into a redirect (late-response reconciliation).  Expired
        parent waiters get nothing (non-response = negative).
        """
        if epoch != self._epoch:
            return
        expired = self.rq.expire(self.sim.now)
        if self.sanitizer is not None and expired:
            self.sanitizer.check_queue(self.rq)
        for waiter in expired:
            payload = waiter.payload
            if isinstance(payload, _ClientWaiter):
                if self._try_requery(waiter, payload):
                    continue
                self._close_wait_span(payload.span, outcome="timeout")
                self._send(
                    payload.reply_to,
                    pr.Wait(
                        payload.req_id,
                        payload.path,
                        self.config.full_delay,
                        watch=self.config.late_release,
                    ),
                )
                self.stats.waits_sent += 1
        self._arm_response_clock(epoch)

    def _try_requery(self, waiter, payload: "_ClientWaiter") -> bool:
        """Give an expired waiter one more fast-response round, maybe.

        Returns True when the waiter was re-queued (joining a re-query
        round already armed by an earlier waiter of the same batch, or
        arming a fresh one: re-flood the still-silent online subset and
        open a backoff-scaled window capped at the epoch remainder).
        False condemns it to the full conservative delay.
        """
        cfg = self.config
        if not cfg.adaptive_window:
            return False
        now = self.sim.now
        ref, _ = self.cache.lookup(payload.path, now, add=False)
        if ref is None:
            return False
        obj = ref.get()
        if not self.deadline.active(obj, now):
            return False
        if not self.rq.has_anchor(obj, waiter.mode):
            # First expired waiter of this batch decides; co-waiters join.
            if obj.rq_retries >= REQUERY_LIMIT:
                return False
            obj.rq_retries += 1
            silent = (
                self.membership.eligible(payload.path)
                & self.membership.v_online
                & ~(obj.v_h | obj.v_p)
                & bitvec.FULL_MASK
            )
            if silent:
                obj.v_q |= silent
                self._flood_queries(obj, payload.path, ref.hash_val, waiter.mode)
            self.stats.requeries += 1
            if self._obs is not None:
                self._obs.tracer.event(
                    payload.path,
                    "rq.requery",
                    node=self.node_id.name,
                    round=obj.rq_retries,
                    fanout=bitvec.count(silent),
                )
        base = self._fast_window() or cfg.fast_period
        window = min(
            base * (REQUERY_BACKOFF**obj.rq_retries),
            self.deadline.remaining(obj, now),
        )
        outcome = self.rq.add_waiter(obj, waiter.mode, payload, now, window=window)
        if outcome.accepted:
            # The expiry pass already parked this waiter; withdraw that copy
            # or the late answer would release the client twice.
            self.rq.unpark(obj, waiter)
            if outcome.queue_was_empty:
                self._wake_response_clock()
        if not outcome.accepted:
            self.stats.rq_rejected += 1
            if self._obs is not None:
                self._obs.tracer.event(payload.path, "rq.rejected", node=self.node_id.name)
        return outcome.accepted

    def _wake_response_clock(self) -> None:
        """A first anchor opened: unpark the clock with one same-time
        callback (a no-op while it is armed)."""
        if not self._rq_armed:
            self._rq_armed = True
            self.sim.call_at(self.sim.now, self._arm_response_clock, self._epoch)

    def _window_tick(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self.cache.tick()
        self.cache.run_background_removal()
        if self.sanitizer is not None:
            self.sanitizer.sweep(cache=self.cache, rq=self.rq, membership=self.membership)
        self.sim.call_at(self.sim.now + self.cache.tick_interval, self._window_tick, epoch)

    def _liveness_sweep(self, epoch: int) -> None:
        """Disconnect children whose heartbeats stopped; drop them later.

        Implements §III-A4's two-phase removal: a silent child first goes
        *offline* (still a member, cached info stays valid), and only after
        ``drop_timeout`` is it dropped (V_m scrubbed, slot freed).
        """
        if epoch != self._epoch:
            return
        now = self.sim.now
        for name, info in list(self.children.items()):
            slot = self.membership.slot_of(name)
            if slot is None:
                del self.children[name]
                continue
            silent_for = now - info.last_seen
            entry = self.membership.slot(slot)
            if entry.online and silent_for > self.config.disconnect_timeout:
                self.membership.disconnect(name)
            elif not entry.online and silent_for > self.config.drop_timeout:
                self.membership.drop(name)
                del self.children[name]
        self.sim.call_at(now + self.config.heartbeat_interval, self._liveness_sweep, epoch)

    # -- silent leaves: the record-served FIFO -----------------------------------

    def _offer(self, src: str, msg: object, arrival: float, seq: int, sent_at: float) -> bool:
        """The network's offer hook: take a ``QueryFile`` copy this leaf
        will not answer as a record (True), or let it be delivered."""
        if msg.__class__ is not _QueryFile or self._in_service is not None:
            return False
        path = msg.path
        xrootd = self.xrootd
        if xrootd.fs.exists(path):
            return False
        mss = xrootd.mss
        if mss is not None and mss.has(path):
            return False
        box = self._box
        if box is None:
            box = self._box = _Inbox()
        elif box.records:
            # Replay what has arrived: the inbox holds only copies in flight.
            self._catch_up()
        if not box.held:
            box.held = True
            self.network.hold(self.host.name, self._settle)
        if not box.watching:
            self._watch(box, True)
        _heappush(box.records, (arrival, seq, src, msg, sent_at))
        return True

    def _settle(self) -> bool:
        """The network's settle callback: catch up; False (and forgotten by
        the network) once no record is left on the wire."""
        self._catch_up()
        box = self._box
        box.held = bool(box.records)
        return box.held

    def _watch(self, box: "_Inbox", on: bool) -> None:
        """Watch our disk and MSS for changes while we hold records (so a
        cluster being populated pays nothing)."""
        if on == box.watching:
            return
        box.watching = on
        mss = self.xrootd.mss
        watch = self._on_store_change
        for store in (self.xrootd.fs,) if mss is None else (self.xrootd.fs, mss):
            if on:
                store.watchers += (watch,)
            else:
                store.watchers = tuple(w for w in store.watchers if w != watch)

    def _catch_up(self) -> None:
        """Replay every record ordered before the running heap entry.

        Arrivals and service ends are taken in ``(time, seq)`` order.  An
        arrival applies :meth:`Network._deliver`'s drop rules and counts,
        then enters service or waits; entering service draws the service
        time from our RNG, as :meth:`_begin_service` does.  A service end
        dispatches nothing (the query is silent) and starts the next
        waiting record.  The seq of a service end is not known — the eager
        path takes it when service starts — so ``box.seq`` stands in for
        it with the largest arrival seq of the records served so far in
        this busy period, which is a lower bound.
        """
        sim = self.sim
        now = sim._now
        cur = sim._seq_now
        box = self._box
        records = box.records
        backlog = box.backlog
        item = box.item
        end = box.end
        est = box.seq
        while True:
            # The next arrival that has passed bounds the service ends to
            # run first; with none, the running entry bounds them.
            rec = records[0] if records else None
            if rec is not None and (rec[0] < now or (rec[0] == now and rec[1] < cur)):
                t, s = rec[0], rec[1]
            else:
                rec = None
                t, s = now, cur
            while item is not None and (end < t or (end == t and est < s)):
                # Service end: silent, so only the next record starts.
                if backlog:
                    item, seq = backlog.popleft()
                    if seq > est:
                        est = seq
                    end += self._service.sample(self.rng)
                else:
                    item = None
            if rec is None:
                break
            _heappop(records)
            a, seq, src, msg, sent_at = rec
            network = self.network
            alive = self.host.alive
            if not alive or (
                (network._partitioned or network._partitioned_oneway or network._isolated)
                and network._blocked(src, self.host.name)
            ):
                # Network._deliver's drop rules and counts.
                network._stats.dropped_dead += not alive
                network._stats.dropped_partition += alive
                continue
            network._stats.delivered += 1
            if item is None:
                item = (msg, src, sent_at)
                est = seq
                end = a + self._service.sample(self.rng)
            elif backlog is None:
                backlog = box.backlog = deque((((msg, src, sent_at), seq),))
            else:
                backlog.append(((msg, src, sent_at), seq))
        box.item = item
        box.end = end
        box.seq = est

    def _hand_off(self) -> None:
        """Give every record back to the eager machinery (after a catch-up):
        the query in service gets its service-end entry, the arrived ones
        the backlog, and the ones on the wire their reserved slots."""
        box = self._box
        item = box.item
        if item is not None:
            self._in_service = item
            # Half a seq past the lower bound: after every entry scheduled
            # before this busy period began, ahead of the later ones.
            self.sim.call_at_seq(box.end, box.seq + 0.5, self._serve, item)
            if box.backlog:
                self._backlog = deque(it for it, _seq in box.backlog)
                box.backlog.clear()
            box.item = None
        self._redeliver(box)

    def _redeliver(self, box: "_Inbox") -> None:
        """Give the records still on the wire back to the network."""
        records = box.records
        if records:
            network = self.network
            name = self.host.name
            for arrival, seq, src, msg, sent_at in records:
                network.redeliver(arrival, seq, src, name, msg, sent_at)
            records.clear()

    def _on_store_change(self, path: str) -> None:
        """A watcher of our disk and MSS, called before each change: a
        pending query may now have to be answered, so the eager path takes
        over whatever is still pending."""
        box = self._box
        if box.pending:
            self._catch_up()
            if box.pending:
                self._hand_off()
        self._watch(box, False)

    def _on_leaf_message(self, src: str, msg: object, sent_at: float) -> None:
        """A silent leaf's receiver: catch up, hand the records off when
        any remain, then take the message as the eager path does."""
        box = self._box
        if box is not None and box.pending:
            self._catch_up()
            if box.pending:
                self._hand_off()
        self._on_message(src, msg, sent_at)

    # -- main dispatch ---------------------------------------------------------

    def _on_message(self, src: str, msg: object, sent_at: float) -> None:
        """The host's receiver: serve *msg* now if idle, else queue it."""
        if self._in_service is None:
            self._begin_service((msg, src, sent_at))
        elif self._backlog is not None:
            self._backlog.append((msg, src, sent_at))
        else:
            self._backlog = deque(((msg, src, sent_at),))

    def _begin_service(self, item: tuple[object, str, float]) -> None:
        # The service time is drawn here, as the message enters service:
        # the RNG is shared with re-login jitter, so the draw order is part
        # of the protocol's behaviour.
        self._in_service = item
        sim = self.sim
        sim.call_at(sim.now + self._service.sample(self.rng), self._serve, item)

    def _serve(self, item: tuple[object, str, float]) -> None:
        """Service of *item* ended: act on it, then start on the next."""
        if item is not self._in_service:
            return  # stopped while in service: the message is lost
        msg, src, sent_at = item
        self._dispatch(msg, src, sent_at)
        if self._backlog:
            self._begin_service(self._backlog.popleft())
        else:
            self._in_service = None

    def _dispatch(self, msg: object, src: str, sent_at: float = 0.0) -> None:
        # The message types are distinct classes, so the order only sets
        # the cost: the per-file traffic (queries, locates) is tested first.
        role = self.node_id.role
        if isinstance(msg, pr.QueryFile):
            if role is Role.SERVER:
                self._on_query_server(msg, src)
            else:
                self._on_query_supervisor(msg, src)
        elif isinstance(msg, pr.Locate) and role is not Role.SERVER:
            self._on_locate(msg)
        elif isinstance(msg, pr.HaveFile) and role is not Role.SERVER:
            self._on_have(msg, sent_at)
        elif isinstance(msg, pr.Heartbeat) and role is not Role.SERVER:
            self._on_heartbeat(msg, src, sent_at)
        elif isinstance(msg, pr.HeartbeatAck):
            self._on_heartbeat_ack(msg, src)
        elif isinstance(msg, pr.Login) and role is not Role.SERVER:
            self._on_login(msg, src, sent_at)
        elif isinstance(msg, pr.Prepare) and role is not Role.SERVER:
            self._on_prepare(msg)
        # Anything else: drop (e.g. QueryFile racing a role change).

    # -- per-peer RTT estimation (adaptive window sizing) ---------------------------

    def _observe_peer(self, node: str, rtt: float) -> None:
        """Fold one round-trip observation into *node*'s EWMA estimate.

        Sim time is globally consistent, so any child message stamps its
        own one-way delivery delay (``now - sent_at``, backlog queueing and
        our service time included — exactly the delays a response must
        survive); doubled, that is a conservative RTT sample.
        """
        prev = self._peer_rtt.get(node)
        if prev is None:
            self._peer_rtt[node] = rtt
        else:
            self._peer_rtt[node] = prev + RTT_ALPHA * (rtt - prev)

    def _fast_window(self) -> float | None:
        """Adaptive anchor window, or None for the flat configured period.

        ``max(fast_period, k x slowest expected responder RTT)``: the
        window must outlive a query round trip to the slowest site that
        might answer, and never undercuts the paper's default.
        """
        if not self.config.adaptive_window:
            return None
        slowest = 0.0
        for slot in bitvec.iter_bits(self.membership.v_online):
            name = self.membership.server_name(slot)
            if name is None:
                continue
            rtt = self._peer_rtt.get(name)
            if rtt is not None and rtt > slowest:
                slowest = rtt
        return max(self.config.fast_period, WINDOW_RTT_MULT * slowest)

    # -- membership handling -----------------------------------------------------

    def _on_login(self, msg: pr.Login, src: str, sent_at: float = 0.0) -> None:
        self._observe_peer(msg.node, 2.0 * (self.sim.now - sent_at))
        try:
            slot = self.membership.login(msg.node, msg.paths)
        except OverflowError:
            # All 64 slots occupied: ignore the login.  The subordinate's
            # heartbeats keep drawing HeartbeatAck(known=False), which do
            # not stop its silence clock, so it rotates on to its next
            # standby instead of wedging on a full parent.
            return
        self.children[msg.node] = ChildInfo(
            name=msg.node, role=Role(msg.role), last_seen=self.sim.now
        )
        self.metrics.selections[slot] = 0
        self.stats.logins_handled += 1
        self._send(src, pr.LoginAck(slot))

    def _on_heartbeat(self, msg: pr.Heartbeat, src: str, sent_at: float = 0.0) -> None:
        self._observe_peer(msg.node, 2.0 * (self.sim.now - sent_at))
        info = self.children.get(msg.node)
        slot = self.membership.slot_of(msg.node)
        if info is None or slot is None:
            # We do not know this child (we probably restarted): tell it so.
            self._send(src, pr.HeartbeatAck(node=self.node_id.name, known=False))
            return
        info.last_seen = self.sim.now
        info.site = msg.site
        entry = self.membership.slot(slot)
        if not entry.online:
            # Reconnection within the drop window (case 3 of §III-A4).
            self.membership.login(msg.node, entry.paths)
        self.metrics.load[slot] = msg.load
        self.metrics.free_space[slot] = msg.free_space
        self._send(src, pr.HeartbeatAck(node=self.node_id.name, known=True))

    def _on_heartbeat_ack(self, msg: pr.HeartbeatAck, src: str) -> None:
        parent = msg.node
        if parent not in self.parents:
            return  # stale ack from a parent we already re-homed away from
        if msg.known:
            self._last_parent_ack[parent] = self.sim.now
            self._relogin_state.pop(parent, None)
        else:
            # Parent restarted state-less (or is full and ignored our
            # login): re-introduce ourselves to it alone (the other parents
            # still know us).  Only a known=True ack stops the silence
            # clock — a parent that cannot place us is not serving us.
            self._login_to_parent(parent)

    # -- server-side query handling (the request-rarely-respond leaf) --------------

    def _on_query_server(self, msg: pr.QueryFile, src: str) -> None:
        """Answer only positively; silence is the negative (§III-B)."""
        assert self.xrootd is not None, "server cmsd needs its xrootd"
        if self.xrootd.fs.exists(msg.path):
            reply = pr.HaveFile(
                path=msg.path,
                hash_val=msg.hash_val,
                node=self.node_id.name,
                pending=False,
                write_capable=True,
            )
        elif self.xrootd.mss is not None and self.xrootd.mss.has(msg.path):
            reply = pr.HaveFile(
                path=msg.path,
                hash_val=msg.hash_val,
                node=self.node_id.name,
                pending=True,
                write_capable=True,
            )
        else:
            if self._obs is not None:
                # Silence IS the protocol's negative answer — the trace is
                # the only place it becomes a visible fact.
                self._obs.tracer.event(
                    msg.path, "server.silent", node=self.node_id.name
                )
            return
        self.stats.haves_sent += 1
        if self._obs is not None:
            self._obs.tracer.event(
                msg.path, "server.have", node=self.node_id.name, pending=reply.pending
            )
        self._send(src, reply)

    def _advertise_new_file(self, path: str) -> None:
        """Unsolicited HaveFile to all parents after a local create."""
        msg = pr.HaveFile(
            path=path,
            hash_val=hash_name(path),
            node=self.node_id.name,
            pending=False,
            write_capable=True,
        )
        for parent in self.parents:
            self._send(cmsd_host(parent), msg)
            self.stats.haves_sent += 1

    # -- supervisor/manager logic ---------------------------------------------------

    def _flood_queries(
        self, obj, path: str, hash_val: int, mode: str, *, refresh: bool = False
    ) -> None:
        """Send QueryFile to every *online* server in V_q; V_q keeps the
        unreachable remainder (resolution step 6)."""
        targets = obj.v_q & self.membership.v_online
        if not targets:
            return
        self._query_serial += 1
        q = pr.QueryFile(
            path=path,
            hash_val=hash_val,
            mode=mode,
            serial=self._query_serial,
            refresh=refresh,
        )
        # Every copy is the same message: size it once, not once per target.
        size = pr.estimate_size(q)
        src = self.host.name
        send = self.network.send
        server_name = self.membership.server_name
        fanout = 0
        for slot in bitvec.iter_bits(targets):
            name = server_name(slot)
            if name is not None:
                send(src, cmsd_host(name), q, size=size)
                fanout += 1
        self.stats.messages_sent += fanout
        self.stats.queries_sent += fanout
        if self._obs is not None and fanout:
            self._obs.tracer.event(path, "query.flood", node=self.node_id.name, fanout=fanout)
        obj.v_q &= ~targets & bitvec.FULL_MASK

    def _enqueue_waiter(self, obj, mode: str, payload, path: str = "") -> bool:
        outcome = self.rq.add_waiter(
            obj, mode, payload, self.sim.now, window=self._fast_window()
        )
        if outcome.accepted and outcome.queue_was_empty:
            self._wake_response_clock()
        if not outcome.accepted:
            # Anchor exhaustion: this client just got condemned to the full
            # conservative delay.  Make the pressure visible.
            self.stats.rq_rejected += 1
            if self._obs is not None and path:
                self._obs.tracer.event(path, "rq.rejected", node=self.node_id.name)
        return outcome.accepted

    def _candidates(
        self, obj, avoid: tuple[str, ...], client_site: str = ""
    ) -> tuple[int, bool]:
        """Selectable (online) holders, preferring V_h over V_p.

        Returns (vector, pending) after excluding avoided node names.  With
        locality awareness enabled and a known client site, holders at that
        site are preferred when any exist (extension; see
        ScallaConfig.locality_aware).
        """
        avoid_mask = 0
        for name in avoid:
            slot = self.membership.slot_of(name)
            if slot is not None:
                avoid_mask |= bitvec.bit(slot)
        usable = ~avoid_mask & self.membership.v_online & bitvec.FULL_MASK
        holders = obj.v_h & usable
        if holders:
            return self._prefer_local(holders, client_site), False
        preparing = obj.v_p & usable
        if preparing:
            return self._prefer_local(preparing, client_site), True
        return 0, False

    def _prefer_local(self, candidates: int, client_site: str) -> int:
        if not self.config.locality_aware or not client_site:
            return candidates
        local = 0
        for slot in bitvec.iter_bits(candidates):
            info = self.children.get(self.membership.server_name(slot) or "")
            if info is not None and info.site == client_site:
                local |= bitvec.bit(slot)
        return local or candidates

    def _redirect(self, msg: pr.Locate, slot: int, pending: bool) -> None:
        name = self.membership.server_name(slot)
        info = self.children.get(name)
        role = info.role.value if info is not None else Role.SERVER.value
        self._send(
            msg.reply_to,
            pr.Redirect(msg.req_id, msg.path, target=name, target_role=role, pending=pending),
        )
        self.stats.redirects += 1

    def _send_wait(self, msg: pr.Locate) -> None:
        self._send(msg.reply_to, pr.Wait(msg.req_id, msg.path, self.config.full_delay))
        self.stats.waits_sent += 1

    def _on_locate(self, msg: pr.Locate) -> None:
        """Handle a client Locate; the traced wrapper around the resolution.

        When observability is on, the whole dispatch becomes one
        ``cmsd.locate`` span on the client's resolution trace, tagged with
        the verdict this cmsd reached (redirect / enqueued / wait-full /
        wait-empty / notfound / create-redirect).
        """
        obs = self._obs
        if obs is None:
            self._do_locate(msg)
            return
        trace = obs.tracer.active(msg.path)
        span = (
            trace.begin("cmsd.locate", obs.now(), node=self.node_id.name, refresh=msg.refresh)
            if trace is not None
            else None
        )
        outcome = self._do_locate(msg)
        if span is not None:
            trace.end(span, obs.now(), outcome=outcome)

    def _do_locate(self, msg: pr.Locate) -> str:
        self.stats.locates += 1
        now = self.sim.now
        if msg.refresh:
            existing, _ = self.cache.lookup(msg.path, now, add=False)
            if existing is not None:
                self.cache.refresh(existing, now)
                self.stats.refreshes += 1
        ref, _is_new = self.cache.lookup(msg.path, now)
        obj = ref.get()
        mode = AccessMode.WRITE if msg.create or msg.mode == AccessMode.WRITE else AccessMode.READ

        # Step 3: somebody already has it -> redirect (even for creates:
        # the open-with-create will fail there with 'exists', the honest
        # POSIX outcome).
        candidates, pending = self._candidates(obj, msg.avoid, msg.client_site)
        if candidates:
            slot = READ_POLICY.choose(candidates, self.metrics)
            self._redirect(msg, slot, pending)
            return "redirect"

        # Steps 1/5/6: flood whoever still needs asking, under the
        # deadline-based single-querier rule (§III-C2).
        if self.deadline.i_should_query(obj, now):
            self.deadline.arm(obj, now)
            self._flood_queries(obj, msg.path, ref.hash_val, mode, refresh=msg.refresh)
        elif not self.config.deadline_sync and self.deadline.active(obj, now):
            # Ablation: with synchronization off, this thread cannot tell a
            # flood is already in flight, so it re-queries every eligible
            # server itself — the duplicated work the deadline exists to
            # prevent.
            obj.v_q = self.membership.eligible(msg.path)
            self.deadline.arm(obj, now)
            self._flood_queries(obj, msg.path, ref.hash_val, mode, refresh=msg.refresh)

        if self.deadline.active(obj, now):
            # Queries (ours or another thread's) may still be answered:
            # wait on the fast response queue (steps 2/4) — unless the
            # fast-response ablation is on, in which case the client simply
            # eats the full conservative delay.
            if not self.config.fast_response:
                self._send_wait(msg)
                return "wait-full"
            payload = _ClientWaiter(
                msg.reply_to, msg.req_id, msg.path, msg.create, span=self._open_wait_span(msg.path)
            )
            if not self._enqueue_waiter(obj, mode, payload, msg.path):
                self._close_wait_span(payload.span, outcome="rejected")
                self._send_wait(msg)
                return "wait-full-rejected"
            return "enqueued"

        # Deadline passed and nothing turned up: the file does not exist
        # anywhere below us -- unless nobody is below us.  A manager with
        # no member online (its servers' logins not landed yet) asked
        # nobody, so the client waits the full delay and asks again.
        if not self.parents and not self.membership.v_online:
            self._send_wait(msg)
            return "wait-empty"
        if msg.create:
            return self._place_create(msg, obj)
        self._send(msg.reply_to, pr.NotFound(msg.req_id, msg.path))
        self.stats.notfounds += 1
        return "notfound"

    def _open_wait_span(self, path: str):
        """Open an async ``rq.wait`` span on the active trace for *path*."""
        if self._obs is None:
            return None
        trace = self._obs.tracer.active(path)
        if trace is None:
            return None
        return trace.open_span("rq.wait", self._obs.now(), node=self.node_id.name)

    def _close_wait_span(self, span, *, outcome: str) -> None:
        if span is not None:
            span.end = self._obs.now()
            span.attrs["outcome"] = outcome

    def _place_create(self, msg: pr.Locate, obj) -> str:
        """Pick a node for a brand-new file (non-existence now confirmed)."""
        eligible = self.membership.eligible(msg.path) & self.membership.v_online
        avoid_mask = 0
        for name in msg.avoid:
            slot = self.membership.slot_of(name)
            if slot is not None:
                avoid_mask |= bitvec.bit(slot)
        eligible &= ~avoid_mask & bitvec.FULL_MASK
        if not eligible:
            self._send(msg.reply_to, pr.NotFound(msg.req_id, msg.path))
            self.stats.notfounds += 1
            return "notfound"
        slot = CREATE_POLICY.choose(eligible, self.metrics)
        self._redirect(msg, slot, pending=False)
        return "create-redirect"

    def _on_prepare(self, msg: pr.Prepare) -> None:
        """Spawn the parallel background look-ups of §III-B2.

        Each path is processed exactly like a cold Locate, minus any client
        to answer: flood now, let responses populate the cache.  The
        client's later individual requests then hit warm (or
        deadline-expired) objects.
        """
        self.stats.prepares += 1
        now = self.sim.now
        for path in msg.paths:
            ref, _ = self.cache.lookup(path, now)
            obj = ref.get()
            if self.deadline.i_should_query(obj, now):
                self.deadline.arm(obj, now)
                self._flood_queries(obj, path, ref.hash_val, AccessMode.READ)
        self._send(msg.reply_to, pr.PrepareAck(msg.req_id, scheduled=len(msg.paths)))

    def _on_query_supervisor(self, msg: pr.QueryFile, src: str) -> None:
        """A parent asks us; answer from cache or flood our own children.

        This is where response compression happens: however many of our
        children respond, the parent receives at most one HaveFile naming
        *us*.
        """
        now = self.sim.now
        if self._obs is not None:
            self._obs.tracer.event(msg.path, "supervisor.query", node=self.node_id.name)
        if msg.refresh:
            existing, _ = self.cache.lookup(msg.path, now, add=False)
            if existing is not None:
                # Propagated §III-C1 refresh: forget the aggregate we told
                # the parent before (it may rest on queries that never
                # arrived) and re-derive it from our own children.
                self.cache.refresh(existing, now)
                self.stats.refreshes += 1
        ref, _ = self.cache.lookup(msg.path, now)
        obj = ref.get()
        if obj.v_h & self.membership.v_online:
            self._send_have_up(src, msg.path, msg.hash_val, pending=False)
            return
        if obj.v_p & self.membership.v_online:
            self._send_have_up(src, msg.path, msg.hash_val, pending=True)
            return
        if self.deadline.i_should_query(obj, now):
            self.deadline.arm(obj, now)
            self._flood_queries(obj, msg.path, msg.hash_val, msg.mode, refresh=msg.refresh)
        if self.deadline.active(obj, now):
            payload = _ParentWaiter(parent_host=src, path=msg.path, hash_val=msg.hash_val)
            self._enqueue_waiter(obj, AccessMode.READ, payload, msg.path)
        # Deadline passed and empty: stay silent — that IS the answer.

    def _send_have_up(self, parent_host: str, path: str, hash_val: int, *, pending: bool) -> None:
        self._send(
            parent_host,
            pr.HaveFile(
                path=path,
                hash_val=hash_val,
                node=self.node_id.name,
                pending=pending,
                write_capable=True,
            ),
        )
        self.stats.haves_sent += 1

    def _on_have(self, msg: pr.HaveFile, sent_at: float = 0.0) -> None:
        """A subordinate reported holding the file: update cache, release
        every waiter the fast response queue holds for it (§III-B1) — and
        every waiter *parked* after its window expired (late-response
        reconciliation): a slow-link answer beats the full delay instead of
        evaporating."""
        now = self.sim.now
        self.stats.haves_received += 1
        if self._obs is not None:
            self._obs.tracer.event(
                msg.path, "have.received", node=self.node_id.name, holder=msg.node
            )
        self._observe_peer(msg.node, 2.0 * (now - sent_at))
        slot = self.membership.slot_of(msg.node)
        if slot is None:
            return  # responder was dropped while the answer was in flight
        prior_ref, _ = self.cache.lookup(msg.path, now, add=False)
        prior_known = prior_ref is not None and (
            prior_ref.get().v_h | prior_ref.get().v_p
        ) != 0
        obj = self.cache.update_holder(msg.path, msg.hash_val, slot, pending=msg.pending)
        if obj is not None and self.deadline.active(obj, now):
            # Full query->response latency (epoch arm to answer arrival) is
            # a direct RTT sample for the responder — the very delay an
            # adaptive window must cover.
            self._observe_peer(msg.node, now - (obj.deadline - self.deadline.full_delay))
        released = (
            []
            if obj is None
            else self.rq.on_response(obj, slot, write_capable=msg.write_capable, now=now)
        )
        late = (
            []
            if obj is None
            else self.rq.on_late_response(obj, slot, write_capable=msg.write_capable, now=now)
        )
        if self.sanitizer is not None:
            # Mutation batch just completed: vectors changed and (possibly)
            # an anchor was reclaimed — check both sides of the coupling.
            if obj is not None:
                self.sanitizer.check_object(obj)
            self.sanitizer.check_queue(self.rq)
        answered_parents = {
            w.payload.parent_host
            for w in released + late
            if isinstance(w.payload, _ParentWaiter)
        }
        # Forward one compressed advisory to parents not already answered via
        # the response queue — but only when this response is *news* (we had
        # no known holder).  Suppressing the rest is exactly the response
        # compression of §II-B2: N child answers, at most one message up.
        if not prior_known:
            for parent in self.parents:
                phost = cmsd_host(parent)
                if phost not in answered_parents:
                    self._send_have_up(phost, msg.path, msg.hash_val, pending=msg.pending)
        if obj is None or not (released or late):
            return
        self.stats.fast_released += len(released)
        self.stats.late_released += len(late)
        if self._obs is not None and late:
            self._obs.tracer.event(
                msg.path,
                "rq.late_release",
                node=self.node_id.name,
                holder=msg.node,
                waiters=len(late),
            )
        name = self.membership.server_name(slot)
        info = self.children.get(name)
        role = info.role.value if info is not None else Role.SERVER.value
        for waiter in released + late:
            payload = waiter.payload
            if isinstance(payload, _ClientWaiter):
                self._close_wait_span(payload.span, outcome="released")
                self.metrics.record_selection(slot)
                self._send(
                    payload.reply_to,
                    pr.Redirect(
                        payload.req_id,
                        payload.path,
                        target=name,
                        target_role=role,
                        pending=msg.pending,
                    ),
                )
                self.stats.redirects += 1
                self.stats.released_redirects += 1
            elif isinstance(payload, _ParentWaiter):
                self._send_have_up(
                    payload.parent_host, payload.path, payload.hash_val, pending=msg.pending
                )
