"""Thin nodes: per-node state is built only once something uses it, and
building it late changes no draw, no order and no answer."""

import random
import tracemalloc

import pytest

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.ids import Role


def _eager_seeds(cluster: ScallaCluster, seed: int) -> dict[str, tuple[float | None, float]]:
    """node -> (MSS seed, node seed), drawn in the cluster's build order:
    the network first, then per node the MSS (servers only) and the node."""
    rng = random.Random(seed)
    rng.random()  # the network's generator
    seeds = {}
    for name, spec in cluster.topology.nodes.items():
        mss_seed = rng.random() if spec.role is Role.SERVER else None
        seeds[name] = (mss_seed, rng.random())
    return seeds


def _stream(rng: random.Random, n: int = 5) -> list[float]:
    return [rng.random() for _ in range(n)]


class TestRngIdentity:
    """Lazy generators draw the streams eager ones would have drawn."""

    @pytest.mark.parametrize("restarts", [0, 1, 3])
    def test_daemon_streams_after_restarts(self, restarts):
        cluster = ScallaCluster(4, config=ScallaConfig(seed=17))
        seeds = _eager_seeds(cluster, 17)
        server, manager = cluster.node("srv00002"), cluster.node("mgr0")
        for _ in range(restarts):
            server.restart()
            manager.restart()

        # The eager reference: one live generator per node, two draws per
        # server boot (xrootd, then cmsd) and one per manager boot.
        mss_seed, node_seed = seeds["srv00002"]
        ref = random.Random(node_seed)
        for _ in range(restarts + 1):
            xrootd_seed, cmsd_seed = ref.random(), ref.random()
        assert _stream(server.xrootd.rng) == _stream(random.Random(xrootd_seed))
        assert _stream(server.cmsd.rng) == _stream(random.Random(cmsd_seed))
        assert _stream(server.mss.rng) == _stream(random.Random(mss_seed))

        ref = random.Random(seeds["mgr0"][1])
        for _ in range(restarts + 1):
            cmsd_seed = ref.random()
        assert _stream(manager.cmsd.rng) == _stream(random.Random(cmsd_seed))

    @pytest.mark.parametrize("seed", [None, 0.25])
    def test_standalone_daemons_draw_their_seed_stream(self, seed):
        from repro.cluster.client import ScallaClient
        from repro.cluster.fs import ServerFS
        from repro.cluster.ids import NodeId
        from repro.cluster.mss import MassStorage
        from repro.cluster.xrootd import XrootdServer
        from repro.sim.kernel import Simulator
        from repro.sim.network import Network

        kw = {} if seed is None else {"seed": seed}
        sim = Simulator()
        mss = MassStorage(sim, **kw)
        net = Network(sim)
        xrootd = XrootdServer(sim, net, NodeId("srv0", Role.SERVER), ServerFS(), **kw)
        client = ScallaClient(sim, net, "c", ("mgr0",), **kw)
        ref = _stream(random.Random(0 if seed is None else seed), 10)
        for daemon in (mss, xrootd, client):
            # Built once, then kept: the second five draws continue the stream.
            assert _stream(daemon.rng) + _stream(daemon.rng) == ref


    def test_cluster_clients_draw_the_cluster_stream(self):
        """Each client takes one draw of the cluster's generator, in build
        order, and builds ``Random(draw)`` only when first asked."""
        cluster = ScallaCluster(4, config=ScallaConfig(seed=17))
        ref = random.Random()
        ref.setstate(cluster.rng.getstate())
        clients = [cluster.client() for _ in range(3)]
        assert all(c._rng is None for c in clients)
        for client in clients:
            assert _stream(client.rng) == _stream(random.Random(ref.random()))
        assert cluster.rng.random() == ref.random()


class TestBuiltOnFirstUse:
    def test_fresh_cluster_holds_no_idle_state(self):
        cluster = ScallaCluster(130, config=ScallaConfig(seed=2))  # sups + mgr
        for node in cluster.nodes.values():
            # A host is its name, its liveness and its daemon's handler.
            assert set(vars(node.cmsd.host)) == {"name", "alive", "receive"}
            assert node.cmsd._backlog is None
            if node.role is Role.SERVER:
                assert set(vars(node.xrootd.host)) == {"name", "alive", "receive"}
                assert node.xrootd._rng is None
                assert node.mss._rng is None
                # The NIC is one timestamp: when its last transfer ends.
                assert node.xrootd._nic_free_at == 0.0
                assert not hasattr(node.xrootd, "_nic")
            else:
                assert set(node.cmsd.rq._anchors) == {None}

    def test_children_of_one_parent_share_one_standby_pool(self):
        cluster = ScallaCluster(130, config=ScallaConfig(seed=2))
        sup = cluster.topology.supervisors[1]
        pools = {
            id(cluster.node(c).cmsd._standby_pool)
            for c in cluster.topology.nodes[sup].children
        }
        assert len(pools) == 1


def test_empty_cluster_footprint_budget():
    """Python allocations of an empty, started 4096-server cluster stay at
    most 12 KiB per server."""
    n = 4096
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster = ScallaCluster(n, config=ScallaConfig(seed=1))
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(cluster.servers) == n
    assert used / n <= 12 * 1024, f"{used / n / 1024:.1f} KiB per server"
