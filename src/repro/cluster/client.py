"""The redirection-following Scalla client.

Implements the client half of the protocol (§II-B2/B3 and §III-C1):

* contact a manager (failing over among replicas), follow ``Redirect``
  hops down through supervisors until a data server is reached, then open
  there;
* honour ``Wait`` verdicts by sleeping the indicated delay and retrying;
* on a failed open ("the client is vectored to a server that, in fact,
  cannot serve the requested file") reissue the locate with
  ``refresh=True`` and the failing host in ``avoid`` — the paper's general
  client recovery mechanism;
* ``prepare()`` for bulk pre-location (§III-B2).

All operations are generator coroutines to be driven by the simulator::

    result = sim.run_until_process(sim.process(client.open("/store/x")))

Every request has a deadline, after which it resolves to None and the
caller recovers (§III-C1).  The client keeps one timer for all of them: a
kernel entry for its earliest outstanding deadline only, moved on when it
fires (:meth:`ScallaClient._await_reply`).  So a client costs the kernel
one queued entry however many requests it has made, and an answered
request leaves nothing behind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster import protocol as pr
from repro.cluster.ids import Role, cmsd_host, xrootd_host
from repro.core.response_queue import AccessMode
from repro.sim.kernel import Event, Simulator
from repro.sim.network import Network

__all__ = [
    "ClientConfig",
    "ClientStats",
    "OpenResult",
    "ScallaError",
    "NoSuchFile",
    "FileExists",
    "ClusterUnreachable",
    "ServerTimeout",
    "ScallaClient",
]


#: Redirect-hop budget per open (tree depth is <= 4 in practice).
MAX_HOPS = 16
#: Base delay for the exponential backoff between *consecutive* manager
#: failovers.  The first rotation in a streak is immediate — the timeout
#: that triggered it already cost seconds, and with a healthy replica
#: next in line an extra sleep is pure added latency.
FAILOVER_BACKOFF = 0.25
#: Cap on the failover backoff delay.
FAILOVER_BACKOFF_CAP = 2.0
#: Jitter fraction on failover backoff (decorrelates a client herd
#: cycling through the same dead manager list in lockstep).
FAILOVER_JITTER = 0.25
#: Full manager failover cycles before giving up.
MAX_FAILOVER_CYCLES = 3
#: Wait/retry budget per open.
MAX_RETRIES = 10
#: Open timeout when the target is still staging the file from an MSS.
#: Staging legitimately takes minutes — but it must stay *finite*: a
#: server crashing mid-stage would otherwise strand the client on the
#: old 1e6 s sentinel instead of entering the recovery loop.
PENDING_OPEN_TIMEOUT = 300.0
#: ``Redirect.target_role`` of a data server: read once here, not per
#: redirect (an Enum's ``value`` is a descriptor call).
_SERVER_ROLE = Role.SERVER.value


class ScallaError(Exception):
    """Base class for client-visible failures."""


class NoSuchFile(ScallaError):
    """The cluster confirmed (after the full wait) the file exists nowhere."""


class FileExists(ScallaError):
    """Create failed: some server already holds the file."""


class ClusterUnreachable(ScallaError):
    """No manager replica answered within the failover budget."""


class ServerTimeout(ScallaError):
    """A data server did not answer an open in time (it may be down)."""


@dataclass
class ClientConfig:
    #: Per-request response timeout before failing over to another manager.
    locate_timeout: float = 2.0
    #: Data-plane response timeout (server death detection).
    op_timeout: float = 2.0


@dataclass
class ClientStats:
    #: End-to-end resolution walks (one per ``locate``/``open`` attempt).
    resolutions: int = 0
    #: Locate messages sent — one walk sends one per hop and per retry.
    locates: int = 0
    redirects: int = 0
    waits: int = 0
    refreshes: int = 0
    failovers: int = 0
    opens: int = 0


@dataclass
class OpenResult:
    """A successfully opened file."""

    path: str
    node: str  # data-server node name
    handle: int
    size: int
    latency: float  # first locate to OpenAck, in simulated seconds
    redirects: int
    waits: int


class ScallaClient:
    """One analysis client (one Root job, one Qserv master channel, ...)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        managers: tuple[str, ...],
        *,
        config: ClientConfig | None = None,
        seed: float = 0,
        obs=None,
    ) -> None:
        if not managers:
            raise ValueError("need at least one manager")
        self.sim = sim
        self.network = network
        self.name = name
        self.managers = managers
        self.config = config if config is not None else ClientConfig()
        self._seed = seed
        self._rng: random.Random | None = None
        self.host = network.add_host(name)
        self.stats = ClientStats()
        # Observability (repro.obs): the client is where a resolution
        # trace is born (locate issued) and where it dies (verdict known).
        self._obs = obs
        if obs is not None:
            obs.metrics.pull(
                self.stats,
                counters=[
                    ("client_locates_total", "resolutions"),
                    ("client_redirects_total", "redirects"),
                    ("client_waits_total", "waits"),
                    ("client_opens_total", "opens"),
                    ("failovers_total", "failovers"),
                ],
                node=name,
            )
            self._m_resolve = obs.metrics.histogram("client_resolve_seconds", node=name)
        self._next_req = 1
        #: req_id -> (the event its reply resolves, the deadline, the seq of
        #: the deadline's slot).
        self._pending: dict[int, tuple[Event, float, int]] = {}
        #: The deadline slots holding a queued :meth:`_on_deadline` entry,
        #: earliest first, as ``(when, seq, later)`` links; None when none
        #: is queued.
        self._armed: tuple | None = None
        self.host.listen(self._on_message)
        self._manager_idx = 0

    @property
    def rng(self) -> random.Random:
        """The failover-jitter generator, ``Random(seed)``, built on first use."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    # -- plumbing ---------------------------------------------------------

    def _on_message(self, src: str, payload: object, sent_at: float) -> None:
        """The host's receiver: resolve the request *payload* answers.

        Replies nobody waits for any more (late, or duplicated) are dropped.
        """
        pending = self._pending
        entry = pending.pop(getattr(payload, "req_id", None), None)
        if entry is not None:
            if not pending:
                self._pending = {}  # an emptied dict keeps the table it grew
            entry[0].succeed(payload)

    def _await_reply(self, req_id: int, timeout: float) -> Event:
        """An event resolved by the reply to *req_id*, or by None once
        *timeout* simulated seconds pass first.

        The deadline takes its kernel slot now (:meth:`Simulator.take_seq`)
        but queues nothing: the client keeps one deadline entry queued, for
        its earliest outstanding slot, and :meth:`_on_deadline` moves it on.
        An answered request leaves nothing behind, and a request that times
        out resolves in the slot its own timer entry would have had.
        """
        sim = self.sim
        ev = sim.event()
        when = sim.now + timeout
        seq = sim.take_seq()
        self._pending[req_id] = (ev, when, seq)
        armed = self._armed
        # A later request has a later seq, so only an earlier time can
        # put its slot ahead of the queued one.
        if armed is None or when < armed[0]:
            sim.call_at_seq(when, seq, self._on_deadline, None)
            self._armed = (when, seq, armed)
        return ev

    def _on_deadline(self, _arg: None) -> None:
        """The earliest queued deadline slot came up: expire every request
        whose slot has passed, in slot order, then queue an entry for the
        next outstanding slot unless one is queued there or earlier."""
        sim = self.sim
        now, cur = sim.now, sim.seq_now
        # Every queued deadline entry is linked in _armed, earliest first,
        # so the one running is the head.
        self._armed = armed = self._armed[2]
        pending = self._pending
        expired = []
        nxt = None
        for req_id, entry in pending.items():
            when, seq = entry[1], entry[2]
            if when < now or (when == now and seq <= cur):
                expired.append((when, seq, req_id))
            elif nxt is None or when < nxt[0] or (when == nxt[0] and seq < nxt[1]):
                nxt = (when, seq)
        expired.sort()
        for _, _, req_id in expired:
            pending.pop(req_id)[0].succeed(None)
        if not pending:
            self._pending = {}
        if nxt is not None and (
            armed is None or nxt[0] < armed[0] or (nxt[0] == armed[0] and nxt[1] < armed[1])
        ):
            sim.call_at_seq(nxt[0], nxt[1], self._on_deadline, None)
            self._armed = (nxt[0], nxt[1], armed)

    def _request(self, to_host: str, msg: pr.Message, timeout: float):
        """Send *msg*, wait for its reply or *timeout*; returns reply or None."""
        self.network.send(self.host.name, to_host, msg, size=msg.wire_size())
        return (yield self._await_reply(msg.req_id, timeout))

    def _req_id(self) -> int:
        rid = self._next_req
        self._next_req += 1
        return rid

    def _current_manager_cmsd(self) -> str:
        return cmsd_host(self.managers[self._manager_idx])

    def _failover(self, streak: int = 0):
        """Rotate to the next manager replica; generator.

        *streak* is how many consecutive failovers preceded this one: 0
        rotates immediately, anything higher sleeps a capped, jittered
        exponential backoff first — when *every* replica is dark, the
        client should probe gently instead of spinning through the list
        at timeout speed.
        """
        self._manager_idx = (self._manager_idx + 1) % len(self.managers)
        self.stats.failovers += 1
        if self._obs is not None:
            self._obs.tracer.cluster_event(
                "client.mgr_failover",
                client=self.name,
                manager=self.managers[self._manager_idx],
                streak=streak,
            )
        if streak > 0:
            delay = min(FAILOVER_BACKOFF_CAP, FAILOVER_BACKOFF * (2.0 ** (streak - 1)))
            delay *= 1.0 + FAILOVER_JITTER * self.rng.random()
            yield self.sim.sleep(delay)

    # -- the protocol ---------------------------------------------------------

    def locate(
        self,
        path: str,
        *,
        mode: str = AccessMode.READ,
        create: bool = False,
        refresh: bool = False,
        avoid: tuple[str, ...] = (),
    ):
        """Resolve *path* to a data-server node name (follows supervisors).

        ``refresh`` asks the manager to re-query before answering and
        ``avoid`` names servers not to be sent to: the §III-C1 recovery
        after a server failed us.  Generator; returns ``(node_name,
        pending)``.  Raises :class:`NoSuchFile` / :class:`ClusterUnreachable`.
        """
        node, pending, _, _ = yield from self._locate_full(path, mode, create, refresh, avoid)
        return node, pending

    def _locate_full(self, path, mode, create, refresh, avoid):
        """One full resolution walk, wrapped in a resolution trace."""
        self.stats.resolutions += 1
        obs = self._obs
        if obs is None:
            return (yield from self._locate_walk(path, mode, create, refresh, avoid, None))
        trace = obs.tracer.start(path, client=self.name, mode=mode, create=create)
        t0 = obs.now()
        try:
            result = yield from self._locate_walk(path, mode, create, refresh, avoid, trace)
        except BaseException as exc:
            obs.tracer.finish(trace, outcome=type(exc).__name__)
            raise
        self._m_resolve.record(obs.now() - t0)
        obs.tracer.finish(
            trace, outcome="resolved", server=result[0], redirects=result[2], waits=result[3]
        )
        return result

    def _locate_walk(self, path, mode, create, refresh, avoid, trace):
        contact = self._current_manager_cmsd()
        at_manager = True
        redirects = waits = 0
        timeouts = 0
        retries = 0
        #: Consecutive fruitless full-delay Waits at one interior node.
        interior_waits = 0
        #: A verdict that arrived *during* a watched Wait (late-response
        #: reconciliation) — processed on the next loop pass in place of a
        #: fresh Locate.
        early_resp = None
        while True:
            if early_resp is not None:
                resp, early_resp = early_resp, None
            else:
                msg = pr.Locate(
                    req_id=self._req_id(),
                    reply_to=self.host.name,
                    path=path,
                    mode=mode,
                    create=create,
                    refresh=refresh and at_manager,
                    avoid=tuple(avoid),
                    client_site=self.network.site_of(self.host.name) or "",
                )
                self.stats.locates += 1
                # A refresh is a one-shot directive: re-sending it on every
                # Wait-retry would reset the query deadline each time and spin
                # forever on a genuinely deleted file.
                refresh = False
                resp = yield from self._request(contact, msg, self.config.locate_timeout)
            if resp is None:
                timeouts += 1
                if timeouts > MAX_FAILOVER_CYCLES * len(self.managers):
                    raise ClusterUnreachable(f"no manager answered for {path!r}")
                yield from self._failover(timeouts - 1)
                contact = self._current_manager_cmsd()
                at_manager = True
                if trace is not None:
                    trace.event("client.mgr_failover", self._obs.now(), node=self.name)
                continue
            if isinstance(resp, pr.Redirect):
                redirects += 1
                interior_waits = 0
                self.stats.redirects += 1
                if trace is not None:
                    trace.event(
                        "client.redirect",
                        self._obs.now(),
                        node=self.name,
                        target=resp.target,
                        pending=resp.pending,
                    )
                if redirects > MAX_HOPS:
                    raise ScallaError(f"redirect loop resolving {path!r}")
                if resp.target_role == _SERVER_ROLE:
                    return resp.target, resp.pending, redirects, waits
                # Interior node: re-issue the locate one level down.
                contact = cmsd_host(resp.target)
                at_manager = False
                refresh = False
                continue
            if isinstance(resp, pr.Wait):
                waits += 1
                self.stats.waits += 1
                if trace is not None:
                    trace.event("client.wait", self._obs.now(), node=self.name, delay=resp.delay)
                retries += 1
                if retries > MAX_RETRIES:
                    raise ScallaError(f"retry budget exhausted for {path!r}")
                if resp.watch:
                    # The sender parked our request for late-response
                    # reconciliation: keep the req_id registered so an
                    # unsolicited Redirect can cut the wait short.
                    late = yield self._await_reply(msg.req_id, resp.delay)
                    if isinstance(late, (pr.Redirect, pr.NotFound)):
                        if trace is not None:
                            trace.event(
                                "client.late_release", self._obs.now(), node=self.name
                            )
                        early_resp = late
                else:
                    yield self.sim.sleep(resp.delay)
                if not at_manager:
                    # A subtree that makes us wait out a full epoch twice
                    # and still has nothing is the wrong subtree: the
                    # manager's aggregate pointing here is stale (its
                    # supervisor can't say "not below me" — silence is its
                    # only negative).  Restart from the top with a refresh,
                    # the same §III-C1 recovery used for mis-vectoring.
                    interior_waits += 1
                    if interior_waits >= 2:
                        interior_waits = 0
                        contact = self._current_manager_cmsd()
                        at_manager = True
                        refresh = True
                continue
            if isinstance(resp, pr.NotFound):
                if at_manager:
                    raise NoSuchFile(path)
                # A supervisor lost the file between our hops (timing edge,
                # §III-C1): restart from the top with a refresh.
                contact = self._current_manager_cmsd()
                at_manager = True
                refresh = True
                continue
            raise ScallaError(f"unexpected locate reply {resp!r}")

    def open(self, path: str, *, mode: str = AccessMode.READ, create: bool = False):
        """Open *path* somewhere in the cluster; returns :class:`OpenResult`.

        Generator.  Handles the full recovery loop: servers that fail the
        open get avoided and the locate is refreshed, per §III-C1.
        """
        start = self.sim.now
        avoid: list[str] = []
        refresh = False
        refreshed_notfound = False
        total_redirects = total_waits = 0
        fo_streak = 0
        for _attempt in range(MAX_RETRIES):
            try:
                node, pending, redirects, waits = yield from self._locate_full(
                    path, mode, create, refresh, tuple(avoid)
                )
            except NoSuchFile:
                # A negative verdict can rest on queries the network ate
                # (silence is indistinguishable from "doesn't have it").
                # Verify it once with a refresh — the same §III-C1 recovery
                # used for mis-vectoring — before telling the caller.
                if refreshed_notfound:
                    raise
                refreshed_notfound = True
                self.stats.refreshes += 1
                refresh = True
                continue
            total_redirects += redirects
            total_waits += waits
            try:
                result = yield from self.open_on(
                    node, path, mode=mode, create=create, pending=pending
                )
            except FileExists:
                raise
            except ServerTimeout:
                # Open timed out — the server (possibly mid-stage) is gone.
                # Rotate managers before re-locating: the redirect that sent
                # us here may reflect a manager's stale view of that host.
                yield from self._failover(fo_streak)
                fo_streak += 1
            except ScallaError:
                fo_streak = 0
            else:
                self.stats.opens += 1
                result.latency = self.sim.now - start
                result.redirects = total_redirects
                result.waits = total_waits
                return result
            # ENOENT, bad handle, or server death: general recovery — ask
            # for a cache refresh and avoid the failing host.
            self.stats.refreshes += 1
            refresh = True
            if node not in avoid:
                avoid.append(node)
        raise ScallaError(f"open retry budget exhausted for {path!r}")

    def open_on(
        self,
        node: str,
        path: str,
        *,
        mode: str = AccessMode.READ,
        create: bool = False,
        pending: bool = False,
    ):
        """Open *path* on data server *node*, with no resolution or
        recovery (:meth:`open` adds both).  Generator; returns
        :class:`OpenResult`.  Raises :class:`FileExists`,
        :class:`ServerTimeout`, or :class:`ScallaError` on any other refusal.
        """
        start = self.sim.now
        msg = pr.Open(
            req_id=self._req_id(),
            reply_to=self.host.name,
            path=path,
            mode=mode,
            create=create,
        )
        # A pending (staging) open legitimately takes minutes: wait longer
        # than the data-plane timeout, but never forever — the bounded wait
        # is what lets the §III-C1 recovery loop engage when the staging
        # server dies underneath us.
        timeout = PENDING_OPEN_TIMEOUT if pending else self.config.op_timeout
        resp = yield from self._request(xrootd_host(node), msg, timeout)
        if isinstance(resp, pr.OpenAck):
            return OpenResult(
                path=path,
                node=node,
                handle=resp.handle,
                size=resp.size,
                latency=self.sim.now - start,
                redirects=0,
                waits=0,
            )
        if resp is None:
            raise ServerTimeout(f"open of {path!r} timed out on {node}")
        if isinstance(resp, pr.OpenFail) and resp.reason == "exists":
            raise FileExists(path)
        raise ScallaError(f"open of {path!r} failed on {node}: {resp!r}")

    # -- data-plane convenience -----------------------------------------------------

    def read(self, result: OpenResult, offset: int, length: int):
        """Generator; returns the bytes read."""
        msg = pr.Read(self._req_id(), self.host.name, result.handle, offset, length)
        resp = yield from self._request(xrootd_host(result.node), msg, self.config.op_timeout)
        if not isinstance(resp, pr.ReadAck):
            raise ScallaError(f"read failed on {result.node}: {resp!r}")
        return resp.data

    def write(self, result: OpenResult, offset: int, data: bytes):
        """Generator; returns bytes written."""
        msg = pr.Write(self._req_id(), self.host.name, result.handle, offset, data)
        resp = yield from self._request(xrootd_host(result.node), msg, self.config.op_timeout)
        if not isinstance(resp, pr.WriteAck):
            raise ScallaError(f"write failed on {result.node}: {resp!r}")
        return resp.written

    def close(self, result: OpenResult):
        """Generator; returns None."""
        msg = pr.Close(self._req_id(), self.host.name, result.handle)
        resp = yield from self._request(xrootd_host(result.node), msg, self.config.op_timeout)
        if not isinstance(resp, pr.CloseAck):
            raise ScallaError(f"close failed on {result.node}: {resp!r}")

    def stat(self, path: str):
        """Generator; returns (exists, size) resolved through the cluster."""
        try:
            node, _pending = yield from self.locate(path)
        except NoSuchFile:
            return False, 0
        return (yield from self.stat_on(node, path))

    def stat_on(self, node: str, path: str):
        """Generator; returns (exists, size) of *path* on data server *node*."""
        msg = pr.Stat(self._req_id(), self.host.name, path)
        resp = yield from self._request(xrootd_host(node), msg, self.config.op_timeout)
        if not isinstance(resp, pr.StatAck):
            raise ScallaError(f"stat failed on {node}: {resp!r}")
        return resp.exists, resp.size

    def remove(self, path: str):
        """Generator; returns True when a copy was removed somewhere."""
        try:
            node, _pending = yield from self.locate(path)
        except NoSuchFile:
            return False
        msg = pr.Remove(self._req_id(), self.host.name, path)
        resp = yield from self._request(xrootd_host(node), msg, self.config.op_timeout)
        return isinstance(resp, pr.RemoveAck) and resp.removed

    def prepare(self, paths):
        """Generator; schedules background look-ups for *paths* (§III-B2)."""
        msg = pr.Prepare(self._req_id(), self.host.name, tuple(paths))
        resp = yield from self._request(
            self._current_manager_cmsd(), msg, self.config.locate_timeout
        )
        if not isinstance(resp, pr.PrepareAck):
            raise ScallaError(f"prepare failed: {resp!r}")
        return resp.scheduled

    def fetch(self, path: str, *, chunk: int = 1 << 20):
        """Generator; opens, reads the whole file, closes; returns bytes."""
        result = yield from self.open(path)
        data = bytearray()
        offset = 0
        while offset < result.size:
            part = yield from self.read(result, offset, min(chunk, result.size - offset))
            if not part:
                break
            data.extend(part)
            offset += len(part)
        yield from self.close(result)
        return bytes(data)
