"""The xrootd data server daemon.

One per leaf node: serves opens/reads/writes/closes against the node's
local :class:`~repro.cluster.fs.ServerFS`, staging offline files from the
:class:`~repro.cluster.mss.MassStorage` on demand.  The host's message
handler starts each request and arms the end of its service time as a
kernel callback; a stage or a transfer in progress is one more pending
callback, so a minutes-long stage never blocks other clients — exactly
why the real daemon is heavily threaded.

The daemon also feeds two side channels:

* load / free-space metrics, reported to parents via cmsd heartbeats and
  consumed by selection policies;
* :class:`~repro.cluster.protocol.NamespaceUpdate` notifications to the
  cnsd (footnote 3's Cluster Name Space daemon) on create/remove.
"""

from __future__ import annotations

import random

from repro.cluster import protocol as pr
from repro.cluster.config import ScallaConfig
from repro.cluster.fs import FSError, ServerFS
from repro.cluster.ids import NodeId
from repro.cluster.mss import MassStorage
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["XrootdServer"]


#: Concurrent requests before reported load saturates.
CAPACITY = 64
#: Nominal disk size, for free-space metrics (bytes).
DISK_SIZE = 1e12
#: Transfer time per byte (1 Gb/s ≈ 8e-9 s/byte).
PER_BYTE = 8e-9


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
        config: ScallaConfig | None = None,
        seed: float = 0,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.fs = fs
        self.mss = mss
        self.cnsd_host = cnsd_host
        self.config = config if config is not None else ScallaConfig()
        #: The per-request service model, bound once.
        self._service = self.config.xrootd_service
        self._seed = seed
        self._rng: random.Random | None = None
        self.host = network.hosts.get(node_id.xrootd) or network.add_host(node_id.xrootd)
        self._handles: dict[int, str] = {}
        self._next_handle = 1
        self._active = 0
        #: When the NIC finishes its last queued transfer (see _transfer).
        self._nic_free_at = 0.0
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

    @property
    def rng(self) -> random.Random:
        """The service-time generator, ``Random(seed)``, built on first use.
        (Not functools.cached_property: it stores through ``__dict__``,
        which on CPython 3.11 slows every later attribute read on the
        instance.)"""
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    # -- metrics the cmsd heartbeats report -------------------------------------

    @property
    def load(self) -> float:
        """Utilization in [0, 1] — active requests over capacity."""
        return min(1.0, self._active / CAPACITY)

    @property
    def free_space(self) -> float:
        return max(0.0, DISK_SIZE - self.fs.total_bytes())

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.host.listen(self._on_message)

    def stop(self) -> None:
        """Stop taking requests; those already started run to completion."""
        self.host.listen(None)

    def _on_message(self, src: str, msg: object, sent_at: float) -> None:
        # Looked up per message, not installed as the handler: a wrapper
        # swapped onto the class (perfbench's request counter) must see it.
        self._handle(msg)

    # -- request handling -----------------------------------------------------

    def _handle(self, msg) -> None:
        """Start one request: it is active until :meth:`_finish`, and its
        service time ends in :meth:`_serve`."""
        self._active += 1
        # ``_rng`` first: a plain attribute read per request, where the
        # property is only needed to build the generator once.
        rng = self._rng or self.rng
        sim = self.sim
        sim.call_at(sim.now + self._service.sample(rng), self._serve, msg)

    def _finish(self, msg, reply) -> None:
        """The one exit of every request: send *reply* (None for a dropped
        request) and stop counting the request active."""
        self._active -= 1
        if reply is not None:
            self.network.send(self.host.name, msg.reply_to, reply, size=reply.wire_size())

    def _serve(self, msg) -> None:
        """The service time is over: reply, or start the stage or transfer
        whose end will."""
        if isinstance(msg, pr.Open):
            self._handle_open(msg)
        elif isinstance(msg, pr.Read):
            self._handle_read(msg)
        elif isinstance(msg, pr.Write):
            self._handle_write(msg)
        elif isinstance(msg, pr.Close):
            self._handle_close(msg)
        elif isinstance(msg, pr.Stat):
            self._handle_stat(msg)
        elif isinstance(msg, pr.Remove):
            self._handle_remove(msg)
        elif isinstance(msg, pr.List):
            self._finish(msg, pr.ListAck(msg.req_id, tuple(self.fs.list(msg.prefix))))
        else:
            self._finish(msg, None)  # unknown: dropped, as a hardened daemon would

    def _handle_open(self, msg: pr.Open) -> None:
        self.opens += 1
        if self._obs is not None:
            self._obs.tracer.event(
                msg.path, "xrootd.open", node=self.node_id.name, create=msg.create
            )
        if self.fs.exists(msg.path):
            if msg.create:
                self.open_failures += 1
                self._finish(msg, pr.OpenFail(msg.req_id, msg.path, "exists"))
            else:
                self._ack_open(msg)
        elif msg.create:
            self.fs.create(msg.path, now=self.sim.now)
            self._notify_cnsd(msg.path, "create")
            for hook in self.on_create_hooks:
                hook(msg.path)
            self._ack_open(msg)
        elif self.mss is not None and self.mss.has(msg.path):
            # Offline file: stage it in, then complete the open.  The open
            # waits for the stage — "the full delay usually represents a
            # small fraction of the time it takes to stage a file".
            self.stages += 1
            self.mss.stage(msg.path).callbacks.append(lambda ev: self._staged(msg, ev.value))
        else:
            self.open_failures += 1
            self._finish(msg, pr.OpenFail(msg.req_id, msg.path, "ENOENT"))

    def _staged(self, msg: pr.Open, size: int) -> None:
        if not self.fs.exists(msg.path):
            self.fs.put(msg.path, b"\x00" * int(size), now=self.sim.now)
        self._ack_open(msg)

    def _ack_open(self, msg: pr.Open) -> None:
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = msg.path
        self._finish(msg, pr.OpenAck(msg.req_id, handle, self.fs.stat(msg.path).size))

    def _fs_failure(self, msg, path: str, err: FSError) -> pr.OpenFail:
        """The reply to a read or write the file system refused."""
        return pr.OpenFail(msg.req_id, path, str(err) if self.fs.exists(path) else "ENOENT")

    def _transfer(self, nbytes: int, done, arg) -> None:
        """Put *nbytes* on the NIC and call ``done(arg)`` once they are sent.

        The NIC sends one transfer at a time at ``PER_BYTE`` seconds/byte,
        in arrival order: a transfer starts when the previous one ends.
        Without this, concurrent reads would each enjoy full line rate and
        aggregate bandwidth would not scale with server count.
        """
        sim = self.sim
        start = max(sim.now, self._nic_free_at)
        self._nic_free_at = end = start + nbytes * PER_BYTE
        sim.call_at(end, done, arg)

    def _handle_read(self, msg: pr.Read) -> None:
        path = self._handles.get(msg.handle)
        if path is None:
            self._finish(msg, pr.OpenFail(msg.req_id, "?", "bad handle"))
            return
        try:
            data = self.fs.read(path, msg.offset, msg.length)
        except FSError as err:
            self._finish(msg, self._fs_failure(msg, path, err))
            return
        self._transfer(len(data), self._read_sent, (msg, data))

    def _read_sent(self, req: tuple[pr.Read, bytes]) -> None:
        msg, data = req
        self.bytes_read += len(data)
        self._finish(msg, pr.ReadAck(msg.req_id, data))

    def _handle_write(self, msg: pr.Write) -> None:
        # The path is bound now: a Close during the transfer must not lose
        # the write.
        path = self._handles.get(msg.handle)
        if path is None:
            self._finish(msg, pr.OpenFail(msg.req_id, "?", "bad handle"))
            return
        self._transfer(len(msg.data), self._write_received, (msg, path))

    def _write_received(self, req: tuple[pr.Write, str]) -> None:
        msg, path = req
        try:
            written = self.fs.write(path, msg.offset, msg.data)
        except FSError as err:
            self._finish(msg, self._fs_failure(msg, path, err))
            return
        self.bytes_written += written
        self._finish(msg, pr.WriteAck(msg.req_id, written))

    def _handle_close(self, msg: pr.Close) -> None:
        self._handles.pop(msg.handle, None)
        self._finish(msg, pr.CloseAck(msg.req_id))

    def _handle_stat(self, msg: pr.Stat) -> None:
        if self.fs.exists(msg.path):
            self._finish(msg, pr.StatAck(msg.req_id, True, self.fs.stat(msg.path).size))
        else:
            self._finish(msg, pr.StatAck(msg.req_id, False, 0))

    def _handle_remove(self, msg: pr.Remove) -> None:
        try:
            self.fs.remove(msg.path)
        except FSError:
            self._finish(msg, pr.RemoveAck(msg.req_id, False))
            return
        self._notify_cnsd(msg.path, "remove")
        self._finish(msg, pr.RemoveAck(msg.req_id, True))

    def _notify_cnsd(self, path: str, op: str) -> None:
        if self.cnsd_host is not None:
            msg = pr.NamespaceUpdate(node=self.node_id.name, path=path, op=op)
            self.network.send(self.host.name, self.cnsd_host, msg, size=msg.wire_size())
