"""The ScallaCluster facade: build, populate, and drive a whole cluster.

This is the top of the public API: one object that wires the simulator,
network, 64-ary tree of nodes, cnsd, and per-server mass storage together,
with the paper's latency constants as defaults.

Typical use::

    cluster = ScallaCluster(n_servers=64, config=ScallaConfig(seed=1))
    cluster.populate([f"/store/run1/f{i}.root" for i in range(100)])
    cluster.settle()

    client = cluster.client()
    data = cluster.run_process(client.fetch("/store/run1/f0.root"))
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field, replace

from repro.cluster.client import ClientConfig, ScallaClient
from repro.cluster.cmsd import Cmsd, CmsdConfig
from repro.cluster.cnsd import CNSD_HOST, CnsDaemon
from repro.cluster.fs import ServerFS
from repro.cluster.ids import Role
from repro.cluster.mss import MassStorage
from repro.cluster.node import ScallaNode
from repro.cluster.topology import Topology, build_topology
from repro.cluster.xrootd import XrootdConfig
from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, LatencyModel
from repro.sim.network import Network

__all__ = ["ScallaConfig", "ScallaCluster"]


def _sanitize_default() -> bool:
    """SimSan default: off, unless SCALLA_SANITIZE is set in the environment.

    The env hook lets the whole test suite run sanitized without touching a
    line of test code: ``SCALLA_SANITIZE=1 pytest`` (CI's determinism job
    does exactly that).
    """
    return os.environ.get("SCALLA_SANITIZE", "").lower() in ("1", "true", "yes", "on")


@dataclass
class ScallaConfig:
    """Cluster-wide tunables.

    Latency defaults model the paper's hardware: ~10 µs per LAN hop, ~80 µs
    of server-side query handling (so a query round trip lands at the
    paper's "servers respond within 100us"), 5 µs of manager CPU per
    message, 1 Gb/s data links.
    """

    exports: tuple[str, ...] = ("/store",)
    fanout: int = 64
    #: N shared-nothing peer managers, each receiving every top-level
    #: login and HaveFile advisory.
    managers: int = 1
    seed: int = 0

    #: One-way wire latency between any two hosts.
    network_latency: LatencyModel = field(default_factory=lambda: Fixed(10e-6))
    #: Manager/supervisor per-message processing cost.
    manager_service: LatencyModel = field(default_factory=lambda: Fixed(5e-6))
    #: Server cmsd per-message processing cost (query handling).
    server_service: LatencyModel = field(default_factory=lambda: Fixed(80e-6))
    #: xrootd per-request service time (open/read bookkeeping + seek).
    xrootd_service: LatencyModel = field(default_factory=lambda: Fixed(50e-6))
    #: Data transfer cost per byte (1 Gb/s ≈ 8 ns/byte).
    per_byte: float = 8e-9
    #: MSS staging time ("order of minutes"; tests shrink this).
    stage_latency: LatencyModel = field(default_factory=lambda: Fixed(120.0))

    full_delay: float = 5.0
    lifetime: float = 8 * 3600.0
    fast_period: float = 0.133
    heartbeat_interval: float = 1.0
    disconnect_timeout: float = 3.5
    drop_timeout: float = 600.0
    relogin_timeout: float = 3.5
    #: Supervisor failover: subordinates of a dead parent re-home to a
    #: standby (sibling supervisor, else grandparent/manager) instead of
    #: heartbeating into the void; see CmsdConfig.rehome.  False restores
    #: the seed behaviour (a crashed interior node strands its subtree).
    rehome: bool = True
    #: Chaos injection (gray failures): probabilistic message loss,
    #: duplication, and delay spikes on every link; see
    #: :class:`repro.sim.network.ChaosConfig`.  None means no chaos and
    #: zero extra RNG draws — event streams stay bit-identical.
    chaos: "object | None" = None
    #: Ablation switches (benches E6/E10); see CmsdConfig.
    fast_response: bool = True
    deadline_sync: bool = True
    #: Extension: prefer same-site replicas when redirecting (see CmsdConfig).
    locality_aware: bool = False
    #: Extension (WAN federations): adaptive fast-response window sizing +
    #: bounded re-query; see CmsdConfig.adaptive_window.
    adaptive_window: bool = False
    #: Late-response reconciliation (see CmsdConfig.late_release).  False
    #: restores the seed behaviour where an answer arriving after the
    #: fast-response window helps nobody — kept as the E6-wan "before" row.
    late_release: bool = True
    #: Observability (repro.obs): when True the cluster carries one shared
    #: :class:`~repro.obs.Observability` hub — metrics on every daemon's
    #: hot path plus per-request resolution traces, all stamped with sim
    #: time.  Off by default: the uninstrumented path stays fast.
    observability: bool = False
    #: SimSan (repro.analysis.simsan): runtime invariant sweeps on every
    #: manager/supervisor cmsd.  Pure reads — turning it on costs time but
    #: changes no event stream.  Defaults from the SCALLA_SANITIZE env var.
    sanitize: bool = field(default_factory=_sanitize_default)

    client: ClientConfig = field(default_factory=ClientConfig)

    def cmsd_config(self, role: Role) -> CmsdConfig:
        service = self.server_service if role is Role.SERVER else self.manager_service
        return CmsdConfig(
            full_delay=self.full_delay,
            lifetime=self.lifetime,
            fast_period=self.fast_period,
            service_time=service,
            heartbeat_interval=self.heartbeat_interval,
            disconnect_timeout=self.disconnect_timeout,
            drop_timeout=self.drop_timeout,
            relogin_timeout=self.relogin_timeout,
            rehome=self.rehome,
            fast_response=self.fast_response,
            deadline_sync=self.deadline_sync,
            locality_aware=self.locality_aware,
            adaptive_window=self.adaptive_window,
            late_release=self.late_release,
            sanitize=self.sanitize,
        )

    def xrootd_config(self) -> XrootdConfig:
        return XrootdConfig(service_time=self.xrootd_service, per_byte=self.per_byte)


class ScallaCluster:
    """A fully wired simulated Scalla deployment."""

    def __init__(
        self,
        n_servers: int,
        *,
        config: ScallaConfig | None = None,
        start: bool = True,
    ) -> None:
        self.config = config if config is not None else ScallaConfig()
        self.sim = Simulator()
        self.obs: Observability | None = None
        if self.config.observability:
            self.obs = Observability()
            self.sim.attach_observability(self.obs)
        self.rng = random.Random(self.config.seed)
        self.network = Network(
            self.sim,
            default_latency=self.config.network_latency,
            rng=random.Random(self.rng.random()),
            chaos=self.config.chaos,
            obs=self.obs,
        )
        self.topology: Topology = build_topology(
            n_servers,
            fanout=self.config.fanout,
            exports=self.config.exports,
            managers=self.config.managers,
        )
        self.cnsd = CnsDaemon(self.sim, self.network)
        self.cnsd.start()

        self.nodes: dict[str, ScallaNode] = {}
        for name, spec in self.topology.nodes.items():
            mss = (
                MassStorage(
                    self.sim,
                    stage_latency=self.config.stage_latency,
                    seed=self.rng.random(),
                )
                if spec.role is Role.SERVER
                else None
            )
            self.nodes[name] = ScallaNode(
                self.sim,
                self.network,
                spec,
                cmsd_config=self.config.cmsd_config(spec.role),
                xrootd_config=self.config.xrootd_config(),
                mss=mss,
                cnsd_host=CNSD_HOST,
                seed=self.rng.random(),
                obs=self.obs,
            )
        self._clients = 0
        #: One zero-filled buffer per file size, shared by every file
        #: :meth:`place` creates without explicit contents (the file system
        #: copies on write).
        self._zeros: dict[int, bytes] = {}
        if start:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for node in self.nodes.values():
            if not node.running:
                node.start()

    def settle(self, duration: float = 0.01) -> None:
        """Run long enough for logins/acks to complete (LAN microseconds)."""
        self.sim.run(until=self.sim.now + duration)

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def run_process(self, gen, *, limit: float | None = None):
        """Drive a client coroutine to completion; return its value."""
        return self.sim.run_until_process(self.sim.process(gen), limit=limit)

    def obs_snapshot(self, **kwargs) -> dict:
        """JSON-serializable metrics+traces snapshot (see repro.obs.export).

        Requires ``ScallaConfig(observability=True)``.
        """
        if self.obs is None:
            raise RuntimeError("observability is off; pass ScallaConfig(observability=True)")
        from repro.obs import export

        return export.snapshot(self.obs, **kwargs)

    # -- accessors ---------------------------------------------------------

    @property
    def managers(self) -> tuple[str, ...]:
        return self.topology.managers

    def node(self, name: str) -> ScallaNode:
        return self.nodes[name]

    def manager_cmsd(self, idx: int = 0) -> Cmsd:
        cmsd = self.nodes[self.managers[idx]].cmsd
        assert cmsd is not None
        return cmsd

    @property
    def servers(self) -> list[str]:
        return self.topology.servers

    def client(self, name: str | None = None, *, config: ClientConfig | None = None) -> ScallaClient:
        if name is None:
            name = f"client{self._clients:04d}"
        self._clients += 1
        return ScallaClient(
            self.sim,
            self.network,
            name,
            self.managers,
            config=config if config is not None else replace(self.config.client),
            rng=random.Random(self.rng.random()),
            obs=self.obs,
        )

    # -- data placement (out-of-band, like pre-existing disk contents) -------------

    def place(self, path: str, server: str, *, data: bytes | None = None, size: int = 1024) -> None:
        """Put *path* on *server*'s disk directly (no protocol traffic)."""
        node = self.nodes[server]
        if node.role is not Role.SERVER:
            raise ValueError(f"{server} is not a data server")
        if data is None:
            data = self._zero(size)
        self._put(node.fs, server, path, data, self.sim.now)

    def _zero(self, size: int) -> bytes:
        """The shared zero-filled buffer of *size* bytes."""
        data = self._zeros.get(size)
        if data is None:
            data = self._zeros[size] = bytes(size)
        return data

    def _put(self, fs: ServerFS, server: str, path: str, data: bytes, now: float) -> None:
        """Store *path* in *server*'s file system *fs* and tell the cnsd."""
        fs.put(path, data, now=now)
        self.cnsd.apply(server, path, "create")

    def archive(self, path: str, server: str, *, size: int = 1024) -> None:
        """Register *path* in *server*'s mass storage (offline file)."""
        node = self.nodes[server]
        if node.mss is None:
            raise ValueError(f"{server} has no MSS")
        node.mss.archive(path, size)

    def populate(
        self,
        paths,
        *,
        copies: int = 1,
        size: int = 1024,
        rng: random.Random | None = None,
    ) -> dict[str, list[str]]:
        """Spread *paths* over the data servers; returns path -> holders.

        Placement is round-robin with *copies* replicas each (random with
        an explicit *rng*), modelling a pre-loaded production federation.
        A file never gets more replicas than there are servers.
        """
        servers = self.servers
        copies = min(copies, len(servers))
        # What place() looks up per file, resolved once for the whole batch.
        fs_of = {s: self.nodes[s].fs for s in servers}
        data = self._zero(size)
        now = self.sim.now
        placement: dict[str, list[str]] = {}
        for i, path in enumerate(paths):
            if rng is None:
                chosen = [servers[(i + c) % len(servers)] for c in range(copies)]
            else:
                chosen = rng.sample(servers, copies)
            for s in chosen:
                self._put(fs_of[s], s, path, data, now)
            placement[path] = chosen
        return placement
