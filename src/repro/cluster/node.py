"""A Scalla node: the xrootd + cmsd pair, with crash/restart lifecycle.

Restart semantics follow the paper's recoverability argument: daemon state
(the name cache, membership, response queue) is purely in-memory and is
**lost** on crash — a restarted node builds fresh daemons.  Only the
server's filesystem (disk) and MSS catalog survive, as they would in
reality.  "No permanent state information is maintained and whatever state
information is needed ... can be quickly constructed or reconstructed in
real time" (§VI).
"""

from __future__ import annotations

import random

from repro.cluster.cmsd import Cmsd
from repro.cluster.config import ScallaConfig
from repro.cluster.fs import ServerFS
from repro.cluster.ids import Role
from repro.cluster.mss import MassStorage
from repro.cluster.topology import NodeSpec
from repro.cluster.xrootd import XrootdServer
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["ScallaNode"]


class ScallaNode:
    """Lifecycle wrapper around one node's daemons."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        spec: NodeSpec,
        *,
        config: ScallaConfig,
        mss: MassStorage | None = None,
        cnsd_host: str | None = None,
        seed: float = 0,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.spec = spec
        #: The cluster's configuration, handed to every daemon it boots.
        self.config = config
        self.mss = mss
        self.cnsd_host = cnsd_host
        #: Each boot seeds its daemons from one stream, ``Random(seed)``.
        #: The node keeps the seed and the number of values drawn so far,
        #: not the generator: a restart (rare) rebuilds it and skips the
        #: draws already used.
        self._seed = seed
        self._draws = 0
        #: Observability hub shared cluster-wide; survives crash/restart
        #: (metrics are per-node series: a rebooted daemon's counters add to
        #: its predecessor's, its gauges replace them).
        self.obs = obs

        # Persistent across restarts: the disk.
        self.fs = ServerFS() if spec.role is Role.SERVER else None

        # Network endpoints exist up front so crash/restart only toggles
        # liveness (names stay stable for everyone else).
        network.add_host(spec.node_id.cmsd)
        if spec.role is Role.SERVER:
            network.add_host(spec.node_id.xrootd)

        self.cmsd: Cmsd | None = None
        self.xrootd: XrootdServer | None = None
        self.instance = 0
        self.running = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def role(self) -> Role:
        return self.spec.role

    @property
    def current_parents(self) -> tuple[str, ...]:
        """The running cmsd's parent set — differs from ``spec.parents``
        after a re-home.  A crashed node forgets its adoption (in-memory
        state only) and boots back onto the static parents."""
        if self.running and self.cmsd is not None:
            return self.cmsd.parents
        return self.spec.parents

    def start(self) -> None:
        """Boot fresh daemons (in-memory state starts empty)."""
        if self.running:
            raise RuntimeError(f"{self.name} already running")
        rng = random.Random(self._seed)
        for _ in range(self._draws):
            rng.random()
        self.network.revive(self.spec.node_id.cmsd)
        if self.spec.role is Role.SERVER:
            self.network.revive(self.spec.node_id.xrootd)
            self.xrootd = XrootdServer(
                self.sim,
                self.network,
                self.spec.node_id,
                self.fs,
                mss=self.mss,
                cnsd_host=self.cnsd_host,
                config=self.config,
                seed=rng.random(),
                obs=self.obs,
            )
            self._draws += 1
            self.xrootd.start()
        self.cmsd = Cmsd(
            self.sim,
            self.network,
            self.spec.node_id,
            parents=self.spec.parents,
            standbys=self.spec.standbys,
            standby_pool=self.spec.standby_pool,
            exports=self.spec.exports,
            xrootd=self.xrootd,
            config=self.config,
            rng=random.Random(rng.random()),
            instance=self.instance,
            obs=self.obs,
        )
        self._draws += 1
        self.cmsd.start()
        self.instance += 1
        self.running = True

    def crash(self) -> None:
        """Power loss: daemons die, hosts stop receiving."""
        if not self.running:
            return
        if self.cmsd is not None:
            self.cmsd.stop()
        if self.xrootd is not None:
            self.xrootd.stop()
        self.network.kill(self.spec.node_id.cmsd)
        if self.spec.role is Role.SERVER:
            self.network.kill(self.spec.node_id.xrootd)
        self.running = False

    def restart(self) -> None:
        """Crash recovery: bring fresh daemons up on the surviving disk."""
        if self.running:
            self.crash()
        self.start()
