"""The cmsd cluster-management daemon.

One per node.  Its behaviour depends on the node's tree role:

* **manager / supervisor** — owns a :class:`~repro.core.cache.NameCache`
  over its ≤64 direct subordinates, answers ``Locate`` requests from
  clients, floods ``QueryFile`` down the tree, collects ``HaveFile``
  responses through the fast response queue, and redirects clients
  (§II-B2/B3, §III).
* **server** — answers ``QueryFile`` with ``HaveFile`` *only when the local
  xrootd actually has (or can stage) the file*, read from its disk and tape
  indexes; silence is the negative response (request-rarely-respond,
  §III-B).

Every cmsd below the root also runs the subordinate half: login to its
parents at start, heartbeats carrying load/space metrics, and automatic
re-login when a (state-less, restarted) parent stops recognizing it — the
mechanism behind "clusters of hundreds of nodes can begin to serve files
within seconds of restarting" (§V).

Messages are served by a message handler, not a process: the host hands
each arrival to :meth:`Cmsd._on_message`, which feeds one FIFO server —
the message in service (``_in_service``), its service end and the backlog
behind it.  The service time is drawn from the daemon's RNG as a message
enters service, and :meth:`Cmsd._dispatch` acts on the message when its
service ends.  Every step is a kernel callback, so a protocol message
costs one heap entry to deliver and one to serve (except at a silent
leaf, below).  The timers are kernel callbacks too
(:meth:`~repro.sim.kernel.Simulator.call_at`), each re-arming itself:

    response clock   — the 133 ms fast-response expiry thread (§III-B)
    window tick      — L_t/64 cache eviction clock (§III-A3)
    heartbeat        — subordinate -> parents
    liveness sweep   — parent-side disconnect/drop timers (§III-A4)

A callback cannot be cancelled, so each carries the boot epoch it was
armed under; :meth:`Cmsd.stop` bumps the epoch and a stale callback does
nothing.

Silent leaves cost no events.  A server cmsd without an observability hub
registers an offer hook and a replay hook with the network
(:meth:`Cmsd._offer`, :meth:`Cmsd._serve_run`): the network keeps on the
wire, with no heap entry (:mod:`repro.sim.network`), a ``QueryFile`` copy
the leaf will not answer — neither its disk nor its MSS has the path when
the copy is sent — and a ``HeartbeatAck`` from a parent that knows the
leaf.  Serving such a copy sends nothing; an ack only sets the leaf's
silence clock, which its heartbeat reads.  So the kept copies pile up, and
the network replays the ones that have arrived as one run whenever
something observable touches the leaf — any other message, its heartbeat,
a stop, a network-state change or a stats read — or once a handful
have piled up (:data:`repro.sim.network.KEPT_RUN`).  Each copy of a run
enters the same FIFO as of its arrival, and its service end gets no heap
entry; such a *record-served* end applies a served ack to the silence
clock as of the end's time and starts the next item, when a later
arrival or the running entry passes it (:meth:`Cmsd._serve_run`,
:meth:`Cmsd._advance`).
An ack from a parent that does not know the leaf is never kept: it sends
a ``Login``, which draws from the network's RNG in global order.  A real
message, or a new file on the leaf's disk or MSS that could turn a
pending query into an answer, switches the leaf to eager
(:meth:`Cmsd._go_eager`): the network queues the kept copies in their
reserved slots, the record-served end gets its heap entry, and the
backlog drains as usual.  A leaf with a hub stays eager, so the tracer
sees every ``server.silent`` in its span; obs-on runs are the oracle the
obs-off runs are checked against.
"""

from __future__ import annotations

import functools
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
from repro.core.response_queue import DEFAULT_ANCHORS, DEFAULT_PERIOD, AccessMode, ResponseQueue
from repro.core.selection import least_selected, most_space
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["CmsdStats", "Cmsd"]

#: Cap on the exponential re-login backoff (engaged when a parent is
#: silent and no standby exists — e.g. the parent is a manager the
#: subordinate is already fully connected to).
RELOGIN_BACKOFF_CAP = 30.0
#: Jitter fraction on re-login backoff delays (decorrelates a 64-wide
#: subtree re-discovering its parent at once).
RELOGIN_JITTER = 0.25

_QueryFile = pr.QueryFile
_HeartbeatAck = pr.HeartbeatAck
#: The role strings a Login may carry, read off the Enum once.
_ROLE_VALUES = frozenset(role.value for role in Role)
#: The paths of a leaf with no MSS: no tape holds anything.
_NO_PATHS: frozenset[str] = frozenset()


@functools.lru_cache(maxsize=256)
def _rotation(standbys: tuple, parents: tuple) -> tuple:
    """The re-home rotation; siblings pass equal tuples, so share one."""
    return standbys + parents


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
        standbys: tuple[str | tuple[str, ...], ...] = (),  # failover parents, in order
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
        #: Re-home rotation: the configured standbys (a name, or a tuple of
        #: peer parents adopted together), then the original parents.
        self._standby_pool = _rotation(standbys, parents)
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
                period=DEFAULT_PERIOD,
                park_ttl=config.full_delay if config.late_release else 0.0,
                obs=obs,
                node=node_id.name,
            )
            self.deadline = DeadlinePolicy(full_delay=config.full_delay)
        else:
            self.membership = None
            self.cache = None
            self.rq = None
            self.deadline = None
        # Every role gets a sanitizer: servers have no cache/queue, but
        # their subordinate half (parents, re-home state) is checkable.
        self.sanitizer = Sanitizer(node=node_id.name) if config.sanitize else None

        #: Boot epoch: bumped by :meth:`stop`; a timer callback armed under
        #: an older epoch does nothing.
        self._epoch = 0
        #: True while the response clock has an expiry (or a wake) pending,
        #: or is running; False while it is parked with no open anchor.
        self._rq_armed = False
        #: The FIFO server: the (msg, src) in service (None when
        #: idle), the arrivals waiting behind it (a deque built the first
        #: time a message has to wait), and — while the one in service is
        #: record-served (module docstring) — its service end, with a lower
        #: bound on the seq that end would have had (see :meth:`_advance`);
        #: else None.  A kept copy's item also carries the kernel seq it
        #: arrived in; while an end is record-served, every item queued is
        #: a kept copy.
        self._in_service: tuple | None = None
        self._backlog: deque[tuple] | None = None
        self._end: float | None = None
        self._end_seq = 0
        #: A server cmsd without a hub (see :meth:`_offer`), and whether it
        #: watches its disk and MSS (only while the network keeps copies).
        self._silent_leaf = (
            node_id.role is Role.SERVER and xrootd is not None and obs is None
        )
        self._watching = False
        #: A server's disk and MSS paths, live: the one holdings test, read
        #: by :meth:`_offer` and :meth:`_on_query_server` (no call per copy).
        self._disk = self._tape = _NO_PATHS
        if node_id.role is Role.SERVER and xrootd is not None:
            self._disk = xrootd.fs.index()
            if xrootd.mss is not None:
                self._tape = xrootd.mss.index()
            # The "newfile" advisory hook: without it, a manager whose cache
            # already concluded "nobody has this file" would never learn the
            # file was just created (its V_q is empty, so nothing re-asks).
            xrootd.on_create_hooks.append(self._advertise_new_file)
        #: The last flood's destination hosts, keyed by what can change
        #: them (see :meth:`_flood`).
        self._flood_hosts: tuple | None = None
        self._last_parent_ack: dict[str, float] = {}
        #: Per-parent re-login backoff: parent -> (attempts, earliest next
        #: send).  Populated only while a parent is silent; cleared by the
        #: first ack.
        self._relogin_state: dict[str, tuple[int, float]] = {}
        self._query_serial = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.host.listen(self._on_message)
        if self._silent_leaf:
            self.network.set_offer(self.host.name, self._offer, self._serve_run)
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
        if self._silent_leaf:
            # Like the eager FIFO: what has arrived is served up to now and
            # lost below, what is still on the wire arrives at a stopped
            # (or dead) host.
            self._catch_up()
            self.network.set_offer(self.host.name, None)
            self._watch(False)
        self.host.listen(None)
        self._in_service = None
        self._backlog = None
        self._end = None
        self._epoch += 1

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

    def _send(self, to: str, msg: pr.Message) -> None:
        self.stats.messages_sent += 1
        self.network.send(self.host.name, to, msg, size=msg.wire_size())

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
        if self._silent_leaf:
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
        """The fast-response 'thread': expire anchors one period old.

        An expired client waiter is told to wait the full delay — watched,
        so a late response can still turn into a redirect (late-response
        reconciliation).  Expired parent waiters get nothing
        (non-response = negative).
        """
        if epoch != self._epoch:
            return
        expired = self.rq.expire(self.sim.now)
        if self.sanitizer is not None and expired:
            self.sanitizer.check_queue(self.rq)
        for waiter in expired:
            payload = waiter.payload
            if isinstance(payload, _ClientWaiter):
                self._close_wait_span(payload.span, outcome="timeout")
                self._send_wait(payload, watch=self.config.late_release)
        self._arm_response_clock(epoch)

    def _wake_response_clock(self) -> None:
        """A waiter was queued: wake the parked clock with one same-time
        callback.  A no-op while it is armed, which it is while any anchor
        is open, so only the add that opens the first anchor wakes it."""
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
        """Disconnect children whose heartbeats stopped; drop them later
        (§III-A4's two-phase removal, :meth:`ClusterMembership.expire`)."""
        if epoch != self._epoch:
            return
        now = self.sim.now
        cfg = self.config
        self.membership.expire(now, cfg.disconnect_timeout, cfg.drop_timeout)
        self.sim.call_at(now + cfg.heartbeat_interval, self._liveness_sweep, epoch)

    # -- main dispatch ---------------------------------------------------------

    def _on_message(self, src: str, msg: object, sent_at: float) -> None:
        """The host's receiver: serve *msg* now if idle, else queue it.

        At a silent leaf the message first switches the leaf to eager."""
        if self._silent_leaf and (self._end is not None or self.network.keeps(self.host.name)):
            self._go_eager()
        item = (msg, src)
        if self._in_service is None:
            self._begin_service(item)
        elif self._backlog is not None:
            self._backlog.append(item)
        else:
            self._backlog = deque((item,))

    def _begin_service(self, item: tuple) -> None:
        # The service time is drawn here, as the message enters service:
        # the RNG is shared with re-login jitter, so the draw order is part
        # of the protocol's behaviour.
        self._in_service = item
        sim = self.sim
        sim.call_at(sim.now + self._service.sample(self.rng), self._serve, item)

    def _serve(self, item: tuple) -> None:
        """Service of *item* ended: act on it, then start on the next."""
        if item is not self._in_service:
            return  # stopped while in service: the message is lost
        self._dispatch(item[0], item[1])
        if self._backlog:
            self._begin_service(self._backlog.popleft())
        else:
            self._in_service = None

    # -- silent leaves: copies kept on the wire ------------------------------------

    def _offer(self, msg: object) -> bool:
        """The network's offer hook: keep on the wire a ``QueryFile`` copy
        this leaf will not answer, or a ``HeartbeatAck(known=True)`` (True),
        or let the copy be queued.

        A known ack only moves the silence clock, which the record-served
        FIFO sets as the ack's service ends (:meth:`_serve_run`).  An
        unknown one sends a ``Login``, which draws a latency from the
        network's RNG, so it is delivered eagerly; so is anything else.
        """
        if self._in_service is not None and self._end is None:
            return False  # the FIFO is eager
        cls = msg.__class__
        if cls is not _QueryFile:
            return cls is _HeartbeatAck and msg.known
        path = msg.path
        if path in self._disk or path in self._tape:
            return False
        if not self._watching:
            self._watch(True)
        return True

    def _serve_run(self, run: list) -> None:
        """The network's replay hook: serve a run of kept copies, in slot
        order, as of their arrivals.

        Each copy joins the FIFO as on the eager path: the service ends
        ordered before its arrival run first (:meth:`_advance`, inlined:
        a call per copy made cold-create measurably slower), and if it
        enters service, its end gets no heap entry.  A served query is
        silent and a served ack only sets the silence clock, so nothing
        here sends or touches the network.
        """
        sample, rng = self._service.sample, self.rng
        current, end, bound = self._in_service, self._end, self._end_seq
        backlog = self._backlog
        for when, seq, src, msg, _sent_at in run:
            while end is not None and (end < when or (end == when and bound < seq)):
                served = current[0]
                if served.__class__ is _HeartbeatAck:
                    self._on_heartbeat_ack(served, end)
                if backlog:
                    current = backlog.popleft()
                    if current[2] > bound:
                        bound = current[2]
                    end += sample(rng)
                else:
                    current = end = None
            item = (msg, src, seq)
            if end is None:
                current, end, bound = item, when + sample(rng), seq
            elif backlog is not None:
                backlog.append(item)
            else:
                backlog = deque((item,))
        self._in_service, self._end, self._end_seq = current, end, bound
        self._backlog = backlog

    def _advance(self, when: float, seq: float) -> None:
        """Run the record-served service ends ordered before ``(when,
        seq)``.  A served query is silent, and a served ack only sets the
        silence clock (:meth:`_on_heartbeat_ack`, at the end's time), so an
        end otherwise just starts the next item, drawing its service time
        as :meth:`_begin_service` does.

        The seq of a record-served end is not known: the eager path takes
        it when service starts.  The largest arrival seq of the items
        served so far in this busy period stands in for it, a lower bound.
        """
        end, bound = self._end, self._end_seq
        backlog = self._backlog
        while end < when or (end == when and bound < seq):
            served = self._in_service[0]
            if served.__class__ is _HeartbeatAck:
                self._on_heartbeat_ack(served, end)
            if not backlog:
                self._in_service = self._end = None
                return
            item = self._in_service = backlog.popleft()
            if item[2] > bound:
                bound = item[2]
            end += self._service.sample(self.rng)
        self._end, self._end_seq = end, bound

    def _catch_up(self) -> None:
        """Serve what has arrived up to the running heap entry."""
        self.network.catch_up(self.host.name)
        if self._end is not None:
            self._advance(self.sim.now, self.sim.seq_now)

    def _go_eager(self) -> None:
        """Switch to eager: the network delivers the copies it keeps for us
        in their slots, and a record-served query still in service gets its
        service end's heap entry; the backlog then drains as usual."""
        self.network.release(self.host.name)
        if self._end is not None:
            sim = self.sim
            self._advance(sim.now, sim.seq_now)
            end = self._end
            if end is not None:
                # Half a seq past the lower bound: after every entry
                # scheduled before this busy period began, ahead of the
                # later ones.
                self._end = None
                sim.call_at_seq(end, self._end_seq + 0.5, self._serve, self._in_service)

    def _watch(self, on: bool) -> None:
        """Watch our disk and MSS for new files while the network keeps
        copies for us (so a cluster being populated pays nothing)."""
        if on == self._watching:
            return
        self._watching = on
        mss = self.xrootd.mss
        watch = self._on_store_change
        for store in (self.xrootd.fs,) if mss is None else (self.xrootd.fs, mss):
            if on:
                store.watchers += (watch,)
            else:
                store.watchers = tuple(w for w in store.watchers if w != watch)

    def _on_store_change(self, path: str) -> None:
        """A watcher of our disk and MSS, called before a new file appears:
        a pending query may now have to be answered, so switch to eager."""
        self._go_eager()
        self._watch(False)

    def _dispatch(self, msg: object, src: str) -> None:
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
            self._on_have(msg)
        elif isinstance(msg, pr.Heartbeat) and role is not Role.SERVER:
            self._on_heartbeat(msg, src)
        elif isinstance(msg, pr.HeartbeatAck):
            self._on_heartbeat_ack(msg, self.sim.now)
        elif isinstance(msg, pr.Login) and role is not Role.SERVER:
            self._on_login(msg, src)
        elif isinstance(msg, pr.Prepare) and role is not Role.SERVER:
            self._on_prepare(msg)
        # Anything else: drop (e.g. QueryFile racing a role change).

    # -- membership handling -----------------------------------------------------

    def _on_login(self, msg: pr.Login, src: str) -> None:
        role = msg.role
        if role not in _ROLE_VALUES:
            raise ValueError(f"{role!r} is not a valid Role")  # no node can have it
        try:
            slot = self.membership.login(msg.node, msg.paths, host=src, role=role, now=self.sim.now)
        except OverflowError:
            # All 64 slots occupied: ignore the login.  The subordinate's
            # heartbeats keep drawing HeartbeatAck(known=False), which do
            # not stop its silence clock, so it rotates on to its next
            # standby instead of wedging on a full parent.
            return
        self.membership.slots[slot].selections = 0
        self.stats.logins_handled += 1
        self._send(src, pr.LoginAck(slot))

    def _on_heartbeat(self, msg: pr.Heartbeat, src: str) -> None:
        # An offline child reconnects here (case 3 of §III-A4).
        slot = self.membership.heartbeat(
            msg.node, self.sim.now, msg.site, msg.load, msg.free_space
        )
        # An unknown child (we probably restarted) is told so, and logs in.
        self._send(src, pr.HeartbeatAck(node=self.node_id.name, known=slot is not None))

    def _on_heartbeat_ack(self, msg: pr.HeartbeatAck, end: float) -> None:
        """Act on an ack whose service ended at *end*: now, or earlier for
        an ack a silent leaf kept on the wire (:meth:`_advance`)."""
        parent = msg.node
        if parent not in self.parents:
            return  # stale ack from a parent we already re-homed away from
        if msg.known:
            self._last_parent_ack[parent] = end
            self._relogin_state.pop(parent, None)
        else:
            # Parent restarted state-less (or is full and ignored our
            # login): re-introduce ourselves to it alone (the other parents
            # still know us).  Only a known=True ack stops the silence
            # clock — a parent that cannot place us is not serving us.
            self._login_to_parent(parent)

    # -- server-side query handling (the request-rarely-respond leaf) --------------

    def _on_query_server(self, msg: pr.QueryFile, src: str) -> None:
        """Answer only positively, from the disk and MSS indexes; silence
        is the negative (§III-B)."""
        assert self.xrootd is not None, "server cmsd needs its xrootd"
        path = msg.path
        if path in self._disk:
            pending = False
        elif path in self._tape:
            pending = True
        else:
            if self._obs is not None:
                # Silence IS the protocol's negative answer — the trace is
                # the only place it becomes a visible fact.
                self._obs.tracer.event(path, "server.silent", node=self.node_id.name)
            return
        if self._obs is not None:
            self._obs.tracer.event(path, "server.have", node=self.node_id.name, pending=pending)
        self._send_have_up(src, path, msg.hash_val, pending=pending)

    def _advertise_new_file(self, path: str) -> None:
        """Unsolicited HaveFile to all parents after a local create."""
        hash_val = hash_name(path)
        for parent in self.parents:
            self._send_have_up(cmsd_host(parent), path, hash_val, pending=False)

    # -- supervisor/manager logic ---------------------------------------------------
    #
    # Locate, QueryFile and Prepare share one resolution step (§II-B2,
    # §III-B, §III-C): :meth:`_lookup` finds the path's location object,
    # after the §III-C1 refresh a request may ask for; a holder is picked
    # from :meth:`_candidates`; else :meth:`_flood` queries V_q under the
    # deadline, and the asker waits on the fast response queue.

    def _lookup(self, path: str, now: float, refresh: bool = False):
        """The cache reference for *path*.  A ``refresh`` first forgets
        what the cache holds for it (§III-C1): it may rest on queries that
        never arrived, so it is re-derived from our own children."""
        cache = self.cache
        if refresh:
            existing, _ = cache.lookup(path, now, add=False)
            if existing is not None:
                cache.refresh(existing, now)
                self.stats.refreshes += 1
        return cache.lookup(path, now)[0]

    def _flood(
        self,
        obj,
        path: str,
        hash_val: int,
        mode: str,
        now: float,
        *,
        refresh: bool = False,
        sync: bool = True,
    ) -> None:
        """Steps 1/5/6 under the single-querier rule (§III-C2): if this
        thread should query, arm the deadline and send QueryFile to every
        *online* server in V_q; V_q keeps the unreachable remainder.

        ``sync=False`` is the ``deadline_sync`` ablation: a thread cannot
        tell a flood is already in flight, so it re-queries every eligible
        server itself — the duplicated work the deadline exists to prevent.
        """
        deadline = self.deadline
        if not deadline.i_should_query(obj, now):
            if sync or not deadline.active(obj, now):
                return
            obj.v_q = self.membership.eligible(path)
        deadline.arm(obj, now)
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
        # Every copy is the same message: size it once, and send it in one
        # call.  A slot's host changes only through a login (which bumps
        # n_c) or a drop, so the destinations are built once per change.
        membership = self.membership
        key = (targets, membership.n_c, membership.drops)
        memo = self._flood_hosts
        if memo is None or memo[0] != key:
            slots = membership.slots
            hosts = tuple(slots[i].host for i in bitvec.iter_bits(targets))
            memo = self._flood_hosts = (key, hosts)
        self.network.send(self.host.name, memo[1], q, size=q.wire_size())
        fanout = len(memo[1])
        self.stats.messages_sent += fanout
        self.stats.queries_sent += fanout
        if self._obs is not None:
            self._obs.tracer.event(path, "query.flood", node=self.node_id.name, fanout=fanout)
        obj.v_q &= ~targets & bitvec.FULL_MASK

    def _enqueue_waiter(self, obj, mode: str, payload, path: str = "") -> bool:
        if self.rq.add_waiter(obj, mode, payload, self.sim.now):
            self._wake_response_clock()
            return True
        # Anchor exhaustion: this client just got condemned to the full
        # conservative delay.  Make the pressure visible.
        self.stats.rq_rejected += 1
        if self._obs is not None and path:
            self._obs.tracer.event(path, "rq.rejected", node=self.node_id.name)
        return False

    def _candidates(
        self, obj, avoid: tuple[str, ...], client_site: str = ""
    ) -> tuple[int, bool]:
        """Selectable (online) holders, preferring V_h over V_p.

        Returns (vector, pending) after excluding avoided node names; when
        the client names its site and holders there exist, just those.
        """
        usable = self._usable(avoid)
        holders = obj.v_h & usable
        if holders:
            return self._prefer_local(holders, client_site), False
        preparing = obj.v_p & usable
        if preparing:
            return self._prefer_local(preparing, client_site), True
        return 0, False

    def _usable(self, avoid: tuple[str, ...]) -> int:
        """The online slots, less those of the *avoid*ed node names."""
        usable = self.membership.v_online
        for name in avoid:
            slot = self.membership.slot_of(name)
            if slot is not None:
                usable &= ~bitvec.bit(slot)
        return usable

    def _prefer_local(self, candidates: int, client_site: str) -> int:
        if not client_site:
            return candidates
        slots = self.membership.slots
        local = 0
        for slot in bitvec.iter_bits(candidates):
            if slots[slot].site == client_site:
                local |= bitvec.bit(slot)
        return local or candidates

    # The replies.  A client asker is a Locate or a parked _ClientWaiter:
    # both carry ``reply_to``, ``req_id`` and ``path``.

    def _redirect(self, asker, slot: int, pending: bool) -> None:
        child = self.membership.slots[slot]
        self._send(
            asker.reply_to,
            pr.Redirect(
                asker.req_id, asker.path, target=child.name, target_role=child.role, pending=pending
            ),
        )
        self.stats.redirects += 1

    def _send_wait(self, asker, *, watch: bool = False) -> None:
        wait = pr.Wait(asker.req_id, asker.path, self.config.full_delay, watch=watch)
        self._send(asker.reply_to, wait)
        self.stats.waits_sent += 1

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
        ref = self._lookup(msg.path, now, msg.refresh)
        obj = ref.get()
        mode = AccessMode.WRITE if msg.create or msg.mode == AccessMode.WRITE else AccessMode.READ

        # Step 3: somebody already has it -> redirect (even for creates:
        # the open-with-create will fail there with 'exists', the honest
        # POSIX outcome).
        candidates, pending = self._candidates(obj, msg.avoid, msg.client_site)
        if candidates:
            self._redirect(msg, least_selected(candidates, self.membership.slots), pending)
            return "redirect"

        sync = self.config.deadline_sync
        self._flood(obj, msg.path, ref.hash_val, mode, now, refresh=msg.refresh, sync=sync)
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
            # Non-existence now confirmed: place the brand-new file.
            eligible = self.membership.eligible(msg.path) & self._usable(msg.avoid)
            if eligible:
                self._redirect(msg, most_space(eligible, self.membership.slots), False)
                return "create-redirect"
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
            ref = self._lookup(path, now)
            self._flood(ref.get(), path, ref.hash_val, AccessMode.READ, now)
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
        obj = self._lookup(msg.path, now, msg.refresh).get()
        holders, pending = self._candidates(obj, (), "")
        if holders:
            self._send_have_up(src, msg.path, msg.hash_val, pending=pending)
            return
        self._flood(obj, msg.path, msg.hash_val, msg.mode, now, refresh=msg.refresh)
        if self.deadline.active(obj, now):
            payload = _ParentWaiter(parent_host=src, path=msg.path, hash_val=msg.hash_val)
            self._enqueue_waiter(obj, AccessMode.READ, payload, msg.path)
        # Deadline passed and empty: stay silent — that IS the answer.

    def _on_have(self, msg: pr.HaveFile) -> None:
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
        slot = self.membership.slot_of(msg.node)
        if slot is None:
            return  # responder was dropped while the answer was in flight
        prior_ref, _ = self.cache.lookup(msg.path, now, add=False)
        prior_known = prior_ref is not None and (
            prior_ref.get().v_h | prior_ref.get().v_p
        ) != 0
        obj = self.cache.update_holder(msg.path, msg.hash_val, slot, pending=msg.pending)
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
        responder = self.membership.slots[slot]
        for waiter in released + late:
            payload = waiter.payload
            if isinstance(payload, _ClientWaiter):
                self._close_wait_span(payload.span, outcome="released")
                responder.selections += 1
                self._redirect(payload, slot, msg.pending)
                self.stats.released_redirects += 1
            elif isinstance(payload, _ParentWaiter):
                self._send_have_up(
                    payload.parent_host, payload.path, payload.hash_val, pending=msg.pending
                )
