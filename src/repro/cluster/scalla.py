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

import random

from repro.cluster.client import ClientConfig, ScallaClient
from repro.cluster.cmsd import Cmsd
from repro.cluster.cnsd import CNSD_HOST, CnsDaemon
from repro.cluster.config import ScallaConfig
from repro.cluster.fs import ServerFS
from repro.cluster.ids import Role
from repro.cluster.mss import MassStorage
from repro.cluster.node import ScallaNode
from repro.cluster.topology import Topology, build_topology
from repro.obs import Observability
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["ScallaConfig", "ScallaCluster"]


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
                config=self.config,
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
            config=config if config is not None else self.config.client,
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
