"""Tests of the ScallaCluster facade's own API surface."""

import pytest

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.ids import Role
from repro.sim.latency import Fixed


class TestConstruction:
    def test_default_config(self):
        cluster = ScallaCluster(2)
        assert cluster.config.fanout == 64
        assert len(cluster.servers) == 2
        assert cluster.managers == ("mgr0",)

    def test_deferred_start(self):
        cluster = ScallaCluster(2, start=False)
        assert not any(n.running for n in cluster.nodes.values())
        cluster.start()
        assert all(n.running for n in cluster.nodes.values())

    def test_start_is_idempotent(self):
        cluster = ScallaCluster(2)
        cluster.start()  # second call must not raise
        assert all(n.running for n in cluster.nodes.values())

    def test_client_names_auto_increment(self):
        cluster = ScallaCluster(1)
        c1, c2 = cluster.client(), cluster.client()
        assert c1.name != c2.name

    def test_manager_cmsd_accessor(self):
        cluster = ScallaCluster(1, config=ScallaConfig(managers=2))
        assert cluster.manager_cmsd(0).node_id.role is Role.MANAGER
        assert cluster.manager_cmsd(1).node_id.name == "mgr1"


class _CountedFixed(Fixed):
    """A fixed service time that counts its draws."""

    def __init__(self, value):
        super().__init__(value)
        self.draws = 0

    def sample(self, rng):
        self.draws += 1
        return self.value


class TestOneConfig:
    """Every daemon and client of a cluster reads the cluster's one
    configuration object, not a copy of it."""

    def test_daemons_and_clients_hold_the_cluster_config(self):
        cluster = ScallaCluster(4, config=ScallaConfig(fanout=2, managers=2))
        cfg = cluster.config
        nodes = list(cluster.nodes.values())
        cluster.node(cluster.servers[0]).restart()
        cluster.node(cluster.topology.supervisors[0]).restart()
        cmsds = [n.cmsd for n in nodes]
        xrootds = [n.xrootd for n in nodes if n.xrootd is not None]
        assert (len(cmsds), len(xrootds)) == (8, 4)
        assert all(d.config is cfg for d in cmsds + xrootds)
        assert all(c.config is cfg.client for c in (cluster.client(), cluster.client()))

    def test_fields_set_before_the_build_reach_the_daemons(self):
        cfg = ScallaConfig(seed=3)
        cfg.full_delay = 0.4
        cfg.manager_service = _CountedFixed(5e-6)
        cfg.server_service = _CountedFixed(80e-6)
        cfg.xrootd_service = _CountedFixed(50e-6)
        cluster = ScallaCluster(2, config=cfg)
        cluster.populate(["/store/a.root"], size=8)
        cluster.settle()
        client = cluster.client()
        assert cluster.run_process(client.open("/store/a.root"), limit=60).size == 8
        t0 = cluster.sim.now
        assert cluster.run_process(client.stat("/store/none.root"), limit=60) == (False, 0)
        # A missing file costs the configured full delay, not the default 5 s.
        assert 0.4 <= cluster.sim.now - t0 < 2.0
        services = (cfg.manager_service, cfg.server_service, cfg.xrootd_service)
        assert all(s.draws > 0 for s in services)


class TestPlacement:
    def test_place_on_non_server_rejected(self):
        cluster = ScallaCluster(1)
        with pytest.raises(ValueError):
            cluster.place("/store/x", cluster.managers[0])

    def test_archive_on_non_server_rejected(self):
        cluster = ScallaCluster(1)
        with pytest.raises(ValueError):
            cluster.archive("/store/x", cluster.managers[0])

    def test_populate_round_robin_determinism(self):
        c1 = ScallaCluster(3, config=ScallaConfig(seed=1))
        c2 = ScallaCluster(3, config=ScallaConfig(seed=1))
        paths = [f"/store/f{i}" for i in range(7)]
        p1 = c1.populate(paths, copies=2)
        p2 = c2.populate(paths, copies=2)
        assert p1 == p2

    def test_populate_random_with_rng(self):
        import random

        cluster = ScallaCluster(4, config=ScallaConfig(seed=2))
        placement = cluster.populate(
            [f"/f{i}" for i in range(10)], copies=2, rng=random.Random(9)
        )
        for path, holders in placement.items():
            assert len(holders) == 2
            assert len(set(holders)) == 2
            for h in holders:
                assert cluster.node(h).fs.exists(path)

    def test_populate_updates_cnsd(self):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=3))
        cluster.populate(["/store/a", "/store/b"])
        assert cluster.cnsd.file_count() == 2

    def test_copies_capped_at_server_count(self):
        import random

        cluster = ScallaCluster(2, config=ScallaConfig(seed=4))
        placement = cluster.populate(["/f"], copies=5, rng=random.Random(0))
        assert len(placement["/f"]) == 2

    def test_round_robin_copies_capped_at_server_count(self):
        """Without an rng, more copies than servers must not put the file
        twice on one server or count a cnsd update per duplicate."""
        cluster = ScallaCluster(2, config=ScallaConfig(seed=4))
        placement = cluster.populate(["/store/a"], copies=3)
        assert placement["/store/a"] == ["srv00000", "srv00001"]
        assert cluster.cnsd.updates == 2

    def test_place_shares_one_zero_buffer_per_size(self):
        cluster = ScallaCluster(3, config=ScallaConfig(seed=5))
        cluster.populate(["/store/a", "/store/b"], copies=3, size=64)
        cluster.place("/store/c", "srv00000", size=32)
        datas = [
            cluster.node(s).fs.stat(p).data
            for s in cluster.servers
            for p in ("/store/a", "/store/b")
        ]
        assert all(d is datas[0] for d in datas)
        assert datas[0] == bytes(64)
        assert bytes(cluster.node("srv00000").fs.stat("/store/c").data) == bytes(32)


class TestRunHelpers:
    def test_settle_advances_clock(self):
        cluster = ScallaCluster(1)
        t0 = cluster.sim.now
        cluster.settle(0.25)
        assert cluster.sim.now == pytest.approx(t0 + 0.25)

    def test_run_process_returns_value(self):
        cluster = ScallaCluster(1)

        def answer():
            yield cluster.sim.timeout(0.1)
            return 42

        assert cluster.run_process(answer()) == 42

    def test_run_process_limit_enforced(self):
        from repro.sim.errors import SimError

        cluster = ScallaCluster(1)

        def forever():
            yield cluster.sim.timeout(100.0)

        with pytest.raises(SimError):
            cluster.run_process(forever(), limit=1.0)
