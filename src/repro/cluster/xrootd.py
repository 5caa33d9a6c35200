"""The xrootd data server daemon.

One per leaf node: serves opens/reads/writes/closes against the node's
local :class:`~repro.cluster.fs.ServerFS`, staging offline files from the
:class:`~repro.cluster.mss.MassStorage` on demand.  Each request is handled
in its own simulation process so a minutes-long stage never blocks other
clients — exactly why the real daemon is heavily threaded.

The daemon also feeds two side channels:

* load / free-space metrics, reported to parents via cmsd heartbeats and
  consumed by selection policies;
* :class:`~repro.cluster.protocol.NamespaceUpdate` notifications to the
  cnsd (footnote 3's Cluster Name Space daemon) on create/remove.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster import protocol as pr
from repro.cluster.fs import FSError, ServerFS
from repro.cluster.ids import NodeId
from repro.cluster.mss import MassStorage
from repro.sim.kernel import Process, Simulator
from repro.sim.latency import Fixed, LatencyModel
from repro.sim.network import Network
from repro.sim.sync import Resource

__all__ = ["XrootdConfig", "XrootdServer"]


@dataclass
class XrootdConfig:
    """Tunables of one data server."""

    #: Fixed per-request service latency (metadata / disk seek).
    service_time: LatencyModel = field(default_factory=lambda: Fixed(50e-6))
    #: Transfer time per byte (1 Gb/s ≈ 8e-9 s/byte).
    per_byte: float = 8e-9
    #: Concurrent requests before reported load saturates.
    capacity: int = 64
    #: Nominal disk size, for free-space metrics (bytes).
    disk_size: float = 1e12


class XrootdServer:
    """Data-plane daemon of one server node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: NodeId,
        fs: ServerFS,
        *,
        mss: MassStorage | None = None,
        cnsd_host: str | None = None,
        config: XrootdConfig | None = None,
        rng: random.Random | None = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.fs = fs
        self.mss = mss
        self.cnsd_host = cnsd_host
        self.config = config if config is not None else XrootdConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.host = network.hosts.get(node_id.xrootd) or network.add_host(node_id.xrootd)
        self._handles: dict[int, str] = {}
        self._next_handle = 1
        self._active = 0
        #: The NIC: one transfer at a time at ``per_byte`` seconds/byte.
        #: Without this, concurrent reads would each enjoy full line rate
        #: and aggregate bandwidth would not scale with server count.
        self._nic = Resource(sim, capacity=1)
        self._proc: Process | None = None
        #: Hooks called with the path of every newly created file.  The
        #: node's cmsd installs its "newfile" advisory here; applications
        #: (e.g. a Qserv worker watching for query files) append their own.
        self.on_create_hooks: list = []
        # Statistics
        self.opens = 0
        self.open_failures = 0
        self.stages = 0
        self.bytes_read = 0
        self.bytes_written = 0
        # Observability (repro.obs): the statistics above plus the live
        # load exported as series; opens annotate resolution traces.
        self._obs = obs
        if obs is not None:
            obs.metrics.pull(
                self,
                counters=[
                    ("xrootd_opens_total", "opens"),
                    ("xrootd_open_failures_total", "open_failures"),
                    ("xrootd_stages_total", "stages"),
                    ("xrootd_bytes_read_total", "bytes_read"),
                    ("xrootd_bytes_written_total", "bytes_written"),
                ],
                gauges=[("xrootd_load", "load")],
                node=node_id.name,
            )

    # -- metrics the cmsd heartbeats report -------------------------------------

    @property
    def load(self) -> float:
        """Utilization in [0, 1] — active requests over capacity."""
        return min(1.0, self._active / self.config.capacity)

    @property
    def free_space(self) -> float:
        return max(0.0, self.config.disk_size - self.fs.total_bytes())

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._proc = self.sim.process(self._main_loop(), name=f"xrootd:{self.node_id.name}")

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.interrupt("stop")
            self._proc = None

    def _main_loop(self):
        while True:
            env = yield self.host.inbox.get()
            # Every request gets its own process: staging or long transfers
            # must not serialize the daemon.
            self.sim.process(self._handle(env.payload), name=f"xrootd-req:{self.node_id.name}")

    # -- request handling -----------------------------------------------------

    def _reply(self, to: str, msg: object) -> None:
        self.network.send(self.host.name, to, msg, size=pr.estimate_size(msg))

    def _handle(self, msg):
        self._active += 1
        try:
            yield self.sim.sleep(self.config.service_time.sample(self.rng))
            if isinstance(msg, pr.Open):
                yield from self._handle_open(msg)
            elif isinstance(msg, pr.Read):
                yield from self._handle_read(msg)
            elif isinstance(msg, pr.Write):
                yield from self._handle_write(msg)
            elif isinstance(msg, pr.Close):
                self._handle_close(msg)
            elif isinstance(msg, pr.Stat):
                self._handle_stat(msg)
            elif isinstance(msg, pr.Remove):
                self._handle_remove(msg)
            elif isinstance(msg, pr.List):
                self._reply(msg.reply_to, pr.ListAck(msg.req_id, tuple(self.fs.list(msg.prefix))))
            # Unknown messages are dropped, as a hardened daemon would.
        finally:
            self._active -= 1

    def _handle_open(self, msg: pr.Open):
        self.opens += 1
        if self._obs is not None:
            self._obs.tracer.event(
                msg.path, "xrootd.open", node=self.node_id.name, create=msg.create
            )
        if self.fs.exists(msg.path):
            if msg.create:
                self.open_failures += 1
                self._reply(msg.reply_to, pr.OpenFail(msg.req_id, msg.path, "exists"))
                return
            yield from self._ack_open(msg)
            return
        if msg.create:
            self.fs.create(msg.path, now=self.sim.now)
            self._notify_cnsd(msg.path, "create")
            for hook in self.on_create_hooks:
                hook(msg.path)
            yield from self._ack_open(msg)
            return
        if self.mss is not None and self.mss.has(msg.path):
            # Offline file: stage it in, then complete the open.  The open
            # blocks for the stage — "the full delay usually represents a
            # small fraction of the time it takes to stage a file".
            self.stages += 1
            size = yield self.mss.stage(msg.path)
            if not self.fs.exists(msg.path):
                self.fs.put(msg.path, b"\x00" * int(size), now=self.sim.now)
            yield from self._ack_open(msg)
            return
        self.open_failures += 1
        self._reply(msg.reply_to, pr.OpenFail(msg.req_id, msg.path, "ENOENT"))

    def _ack_open(self, msg: pr.Open):
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = msg.path
        size = self.fs.stat(msg.path).size
        self._reply(msg.reply_to, pr.OpenAck(msg.req_id, handle, size))
        return
        yield  # pragma: no cover - keeps this a generator for uniform call sites

    def _handle_read(self, msg: pr.Read):
        path = self._handles.get(msg.handle)
        if path is None:
            self._reply(msg.reply_to, pr.OpenFail(msg.req_id, "?", "bad handle"))
            return
        data = self.fs.read(path, msg.offset, msg.length)
        yield self._nic.acquire()
        try:
            yield self.sim.sleep(len(data) * self.config.per_byte)
        finally:
            self._nic.release()
        self.bytes_read += len(data)
        self._reply(msg.reply_to, pr.ReadAck(msg.req_id, data))

    def _handle_write(self, msg: pr.Write):
        path = self._handles.get(msg.handle)
        if path is None:
            self._reply(msg.reply_to, pr.OpenFail(msg.req_id, "?", "bad handle"))
            return
        yield self._nic.acquire()
        try:
            yield self.sim.sleep(len(msg.data) * self.config.per_byte)
        finally:
            self._nic.release()
        written = self.fs.write(path, msg.offset, msg.data)
        self.bytes_written += written
        self._reply(msg.reply_to, pr.WriteAck(msg.req_id, written))

    def _handle_close(self, msg: pr.Close) -> None:
        self._handles.pop(msg.handle, None)
        self._reply(msg.reply_to, pr.CloseAck(msg.req_id))

    def _handle_stat(self, msg: pr.Stat) -> None:
        if self.fs.exists(msg.path):
            self._reply(msg.reply_to, pr.StatAck(msg.req_id, True, self.fs.stat(msg.path).size))
        else:
            self._reply(msg.reply_to, pr.StatAck(msg.req_id, False, 0))

    def _handle_remove(self, msg: pr.Remove) -> None:
        try:
            self.fs.remove(msg.path)
        except FSError:
            self._reply(msg.reply_to, pr.RemoveAck(msg.req_id, False))
            return
        self._notify_cnsd(msg.path, "remove")
        self._reply(msg.reply_to, pr.RemoveAck(msg.req_id, True))

    def _notify_cnsd(self, path: str, op: str) -> None:
        if self.cnsd_host is not None:
            msg = pr.NamespaceUpdate(node=self.node_id.name, path=path, op=op)
            self.network.send(self.host.name, self.cnsd_host, msg, size=pr.estimate_size(msg))
