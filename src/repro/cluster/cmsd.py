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

The daemon is a set of cooperating simulation processes:

    main loop        — inbox dispatch, with a per-message service time
    response clock   — the 133 ms fast-response expiry thread (§III-B)
    window ticker    — L_t/64 cache eviction clock (§III-A3)
    heartbeat loop   — subordinate -> parents
    liveness sweep   — parent-side disconnect/drop timers (§III-A4)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.simsan import Sanitizer
from repro.cluster import protocol as pr
from repro.cluster.ids import NodeId, Role, cmsd_host
from repro.cluster.xrootd import XrootdServer
from repro.core import bitvec
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.core.crc32 import hash_name
from repro.core.deadline import DeadlinePolicy
from repro.core.response_queue import AccessMode, ResponseQueue
from repro.core.selection import MostSpace, RoundRobin, SelectionPolicy, ServerMetrics
from repro.sim.errors import Interrupt
from repro.sim.kernel import Process, Simulator
from repro.sim.latency import Fixed, LatencyModel
from repro.sim.network import Network

__all__ = ["CmsdConfig", "CmsdStats", "ChildInfo", "Cmsd"]


@dataclass
class CmsdConfig:
    """Tunables; defaults follow the paper's stated values."""

    #: Full wait before silence means non-existence (paper: 5 s).
    full_delay: float = 5.0
    #: Location-object lifetime L_t (paper: 8 h).
    lifetime: float = 8 * 3600.0
    #: Fast-response clocking period (paper: 133 ms).
    fast_period: float = 0.133
    #: Response-queue anchors (paper: 1024).
    anchors: int = 1024
    #: Per-message processing cost of this cmsd.
    service_time: LatencyModel = field(default_factory=lambda: Fixed(5e-6))
    #: Subordinate -> parent heartbeat interval.
    heartbeat_interval: float = 1.0
    #: Missed-heartbeat horizon after which a child is marked offline.
    disconnect_timeout: float = 3.5
    #: Offline horizon after which a child is dropped from the cluster
    #: ("Should the server not reconnect in a configurable amount of time").
    drop_timeout: float = 600.0
    #: Missed-ack horizon after which a subordinate re-logins.
    relogin_timeout: float = 3.5
    #: Supervisor failover: when a parent stays silent past
    #: ``relogin_timeout``, re-home to the next standby (the dead parent's
    #: sibling supervisor, else the grandparent/manager) instead of
    #: heartbeating into the void.  The adopting parent treats the login
    #: as an ordinary §III-A4 "server added" membership event, so cached
    #: locations stay correctable with zero cache walks.  False restores
    #: the seed behaviour where a crashed interior node strands its
    #: subtree until the same host returns.
    rehome: bool = True
    #: Cap on the exponential re-login backoff (engaged when a parent is
    #: silent and no standby exists — e.g. the parent is a manager the
    #: subordinate is already fully connected to).
    relogin_backoff_cap: float = 30.0
    #: Jitter fraction on re-login backoff delays (decorrelates a 64-wide
    #: subtree re-discovering its parent at once).
    relogin_jitter: float = 0.25
    #: Selection policy for read/write redirection.
    read_policy: SelectionPolicy = field(default_factory=RoundRobin)
    #: Selection policy for placing new files.
    create_policy: SelectionPolicy = field(default_factory=MostSpace)
    #: ABLATION (bench E6): when False the fast response queue is bypassed —
    #: clients with queries in flight are simply told to wait the full
    #: delay and retry, as a design without §III-B's queue would.
    fast_response: bool = True
    #: ABLATION (bench E10): when False, deadline-based query
    #: synchronization is off — every thread finding no holders re-queries
    #: all eligible servers itself, duplicating floods (§III-C2's "only one
    #: thread should issue the queries" un-enforced).
    deadline_sync: bool = True
    #: EXTENSION: when True, redirection prefers holders at the client's
    #: site (WAN federations, §IV-A); falls back to the full candidate set
    #: when no local replica exists.
    locality_aware: bool = False
    #: EXTENSION (WAN federations): adaptive fast-response window sizing.
    #: When True, each new response-queue anchor's deadline is
    #: ``max(fast_period, window_rtt_mult x slowest expected responder's
    #: EWMA RTT)`` instead of the flat ``fast_period``; on a LAN the RTT
    #: term stays far below 133 ms, so the paper's default is preserved
    #: bit-for-bit.  Also arms the bounded re-query (see requery_limit).
    adaptive_window: bool = False
    #: k in the adaptive window formula.
    window_rtt_mult: float = 3.0
    #: EWMA smoothing factor for per-peer RTT estimates (fed from login /
    #: heartbeat arrival latencies and observed query-response latencies).
    rtt_alpha: float = 0.25
    #: Bounded re-query (adaptive mode only): on window expiry with the
    #: epoch deadline still active, re-flood the still-silent subset up to
    #: this many times — each round's window scaled by requery_backoff and
    #: capped at the epoch remainder — before the full-delay fallback.
    requery_limit: int = 1
    #: Window growth factor per re-query round.
    requery_backoff: float = 2.0
    #: Late-response reconciliation: a HaveFile arriving after its anchor
    #: expired still updates V_h *and* releases clients parked on the full
    #: 5 s delay (they are told to keep listening via ``Wait.watch``).
    #: False restores the seed behaviour where late answers help nobody —
    #: the ablation bench E6-wan's "before" row.
    late_release: bool = True
    #: SimSan (repro.analysis.simsan): when True, manager/supervisor cmsds
    #: sweep their cache/queue/membership invariants after every eviction
    #: tick, response-processing batch, and expiry pass.  Sweeps are pure
    #: reads — event streams are identical with it on or off.
    sanitize: bool = False


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


class Cmsd:
    """One node's cluster-management daemon."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: NodeId,
        *,
        parents: tuple[str, ...] = (),  # parent node names
        standbys: tuple[str, ...] = (),  # failover parents, in order
        exports: tuple[str, ...] = ("/store",),
        xrootd: XrootdServer | None = None,
        config: CmsdConfig | None = None,
        rng: random.Random | None = None,
        instance: int = 0,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.parents = parents
        self.standbys = standbys
        #: Re-home rotation: the configured standbys first, then the
        #: original parents (so a subordinate driven off its home parent
        #: eventually retries it once the alternatives are exhausted).
        self._standby_pool: tuple[str, ...] = standbys + tuple(
            p for p in parents if p not in standbys
        )
        self._standby_idx = 0
        self.exports = exports
        self.xrootd = xrootd
        self.config = config if config is not None else CmsdConfig()
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
                self.membership, lifetime=self.config.lifetime, obs=obs, node=node_id.name
            )
            self.rq = ResponseQueue(
                anchors=self.config.anchors,
                period=self.config.fast_period,
                park_ttl=self.config.full_delay if self.config.late_release else 0.0,
                obs=obs,
                node=node_id.name,
            )
            self.deadline = DeadlinePolicy(full_delay=self.config.full_delay)
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
        self.sanitizer = Sanitizer(node=node_id.name) if self.config.sanitize else None

        self._procs: list[Process] = []
        self._rq_wake = None
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

    def start(self) -> None:
        self._procs = [self.sim.process(self._main_loop(), name=f"cmsd:{self.node_id.name}")]
        if self.node_id.role is not Role.SERVER:
            self._procs.append(
                self.sim.process(self._response_clock(), name=f"cmsd-rq:{self.node_id.name}")
            )
            self._procs.append(
                self.sim.process(self._window_ticker(), name=f"cmsd-tick:{self.node_id.name}")
            )
            self._procs.append(
                self.sim.process(self._liveness_sweep(), name=f"cmsd-sweep:{self.node_id.name}")
            )
        if self.parents:
            self._login_to_parents()
            self._procs.append(
                self.sim.process(self._heartbeat_loop(), name=f"cmsd-hb:{self.node_id.name}")
            )

    def stop(self) -> None:
        for p in self._procs:
            p.interrupt("stop")
        self._procs = []

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

    def _heartbeat_loop(self):
        try:
            while True:
                yield self.sim.sleep(self.config.heartbeat_interval)
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
                    # Every parent unreachable: the whole subtree below us
                    # is orphaned until a re-home or re-login lands.
                    self.stats.orphaned_seconds += self.config.heartbeat_interval
                for parent in silent:
                    self._handle_silent_parent(parent, now)
                if self.sanitizer is not None and self.parents:
                    self.sanitizer.check_subordinate(self)
        except Interrupt:
            return

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
        delay = min(
            self.config.relogin_backoff_cap,
            self.config.relogin_timeout * (2.0**attempts),
        )
        delay *= 1.0 + self.config.relogin_jitter * self.rng.random()
        self._relogin_state[parent] = (attempts + 1, now + delay)

    def _rehome(self, dead_parent: str, now: float) -> bool:
        """Adopt the next standby in place of *dead_parent*.

        Rotates through the standby pool — sibling supervisors first, then
        the grandparent/manager level, then the original parent again — and
        swaps the first candidate we are not already logged into in place
        of the dead one.  The adopter treats our Login as an ordinary
        §III-A4 "server added" membership event (fresh slot, C-counter
        stamp), so every cached location above stays correctable with zero
        cache walks.  Returns False when there is nowhere to go (e.g. a
        top-level subordinate already logged into every manager).
        """
        pool = self._standby_pool
        if not pool:
            return False
        for _ in range(len(pool)):
            candidate = pool[self._standby_idx % len(pool)]
            self._standby_idx += 1
            if candidate != dead_parent and candidate not in self.parents:
                break
        else:
            return False
        self.parents = tuple(p for p in self.parents if p != dead_parent) + (candidate,)
        self._last_parent_ack.pop(dead_parent, None)
        self._relogin_state.pop(dead_parent, None)
        self.stats.rehomes += 1
        self._login_to_parent(candidate)
        if self._obs is not None:
            self._obs.tracer.cluster_event(
                "cmsd.rehome",
                time=now,
                node=self.node_id.name,
                old=dead_parent,
                new=candidate,
            )
        if self.sanitizer is not None:
            self.sanitizer.check_subordinate(self)
        return True

    # -- parent-side background processes ----------------------------------------

    def _response_clock(self):
        """The fast-response 'thread': expire anchors past their window.

        An expired client waiter is, in order of preference: ridden through
        a bounded re-query round (adaptive mode, epoch still active), or
        told to wait the full delay — watched, so a late response can still
        turn into a redirect (late-response reconciliation).  Expired
        parent waiters get nothing (non-response = negative).
        """
        try:
            while True:
                if self.rq.active_anchors == 0:
                    self._rq_wake = self.sim.event()
                    yield self._rq_wake
                nxt = self.rq.next_expiry()
                if nxt is None:
                    continue
                # The 1 µs slack guards against float round-off leaving the
                # oldest anchor infinitesimally younger than the cutoff,
                # which would spin this loop on zero-length timeouts.
                yield self.sim.sleep(max(0.0, nxt - self.sim.now) + 1e-6)
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
        except Interrupt:
            return

    def _try_requery(self, waiter, payload: "_ClientWaiter") -> bool:
        """Give an expired waiter one more fast-response round, maybe.

        Returns True when the waiter was re-queued (joining a re-query
        round already armed by an earlier waiter of the same batch, or
        arming a fresh one: re-flood the still-silent online subset and
        open a backoff-scaled window capped at the epoch remainder).
        False condemns it to the full conservative delay.
        """
        cfg = self.config
        if not cfg.adaptive_window or cfg.requery_limit <= 0:
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
            if obj.rq_retries >= cfg.requery_limit:
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
            base * (cfg.requery_backoff**obj.rq_retries),
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
        if self._rq_wake is not None and not self._rq_wake.triggered:
            self._rq_wake.succeed()

    def _window_ticker(self):
        try:
            while True:
                yield self.sim.sleep(self.cache.tick_interval)
                self.cache.tick()
                self.cache.run_background_removal()
                if self.sanitizer is not None:
                    self.sanitizer.sweep(
                        cache=self.cache, rq=self.rq, membership=self.membership
                    )
        except Interrupt:
            return

    def _liveness_sweep(self):
        """Disconnect children whose heartbeats stopped; drop them later.

        Implements §III-A4's two-phase removal: a silent child first goes
        *offline* (still a member, cached info stays valid), and only after
        ``drop_timeout`` is it dropped (V_m scrubbed, slot freed).
        """
        try:
            while True:
                yield self.sim.sleep(self.config.heartbeat_interval)
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
        except Interrupt:
            return

    # -- main dispatch ---------------------------------------------------------

    def _main_loop(self):
        try:
            while True:
                env = yield self.host.inbox.get()
                yield self.sim.sleep(self.config.service_time.sample(self.rng))
                self._dispatch(env.payload, env.src, env.sent_at)
        except Interrupt:
            return

    def _dispatch(self, msg: object, src: str, sent_at: float = 0.0) -> None:
        role = self.node_id.role
        if isinstance(msg, pr.Heartbeat) and role is not Role.SERVER:
            self._on_heartbeat(msg, src, sent_at)
        elif isinstance(msg, pr.Login) and role is not Role.SERVER:
            self._on_login(msg, src, sent_at)
        elif isinstance(msg, pr.QueryFile):
            if role is Role.SERVER:
                self._on_query_server(msg, src)
            else:
                self._on_query_supervisor(msg, src)
        elif isinstance(msg, pr.HaveFile) and role is not Role.SERVER:
            self._on_have(msg, sent_at)
        elif isinstance(msg, pr.Locate) and role is not Role.SERVER:
            self._on_locate(msg)
        elif isinstance(msg, pr.Prepare) and role is not Role.SERVER:
            self._on_prepare(msg)
        elif isinstance(msg, pr.HeartbeatAck):
            self._on_heartbeat_ack(msg, src)
        # Anything else: drop (e.g. QueryFile racing a role change).

    # -- per-peer RTT estimation (adaptive window sizing) ---------------------------

    def _observe_peer(self, node: str, rtt: float) -> None:
        """Fold one round-trip observation into *node*'s EWMA estimate.

        Sim time is globally consistent, so any child message stamps its
        own one-way delivery delay (``now - sent_at``, inbox queueing and
        our service time included — exactly the delays a response must
        survive); doubled, that is a conservative RTT sample.
        """
        prev = self._peer_rtt.get(node)
        if prev is None:
            self._peer_rtt[node] = rtt
        else:
            self._peer_rtt[node] = prev + self.config.rtt_alpha * (rtt - prev)

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
        return max(self.config.fast_period, self.config.window_rtt_mult * slowest)

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
        fanout = 0
        for slot in bitvec.iter_bits(targets):
            name = self.membership.server_name(slot)
            if name is not None:
                self._send(cmsd_host(name), q)
                self.stats.queries_sent += 1
                fanout += 1
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
        site are preferred when any exist (extension; see CmsdConfig).
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
        notfound / create-redirect).
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
            policy = self.config.read_policy
            slot = policy.choose(candidates, self.metrics)
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
        # anywhere below us.
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
        slot = self.config.create_policy.choose(eligible, self.metrics)
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
