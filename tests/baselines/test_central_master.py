"""Unit tests for the GFS-style central master baseline."""

import random

from repro.baselines.central_master import (
    CentralMaster,
    ManifestChunk,
    register_over_network,
)
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network
from tests.probe import mailbox


class TestCentralMaster:
    def test_ingest_and_lookup(self):
        m = CentralMaster()
        m.ingest(ManifestChunk(node="srv1", paths=("/a", "/b"), last=True))
        assert m.lookup("/a") == {"srv1"}
        assert m.lookup("/ghost") == set()
        assert m.registered_nodes == {"srv1"}
        assert m.file_count() == 2

    def test_multi_chunk_registration(self):
        m = CentralMaster()
        m.ingest(ManifestChunk(node="srv1", paths=("/a",), last=False))
        assert "srv1" not in m.registered_nodes
        m.ingest(ManifestChunk(node="srv1", paths=("/b",), last=True))
        assert "srv1" in m.registered_nodes

    def test_multiple_holders(self):
        m = CentralMaster()
        m.ingest(ManifestChunk(node="srv1", paths=("/a",), last=True))
        m.ingest(ManifestChunk(node="srv2", paths=("/a",), last=True))
        assert m.lookup("/a") == {"srv1", "srv2"}

    def test_deregister_scrubs_node(self):
        m = CentralMaster()
        m.ingest(ManifestChunk(node="srv1", paths=("/a", "/b"), last=True))
        m.ingest(ManifestChunk(node="srv2", paths=("/a",), last=True))
        removed = m.deregister("srv1")
        assert removed == 2
        assert m.lookup("/a") == {"srv2"}
        assert m.lookup("/b") == set()


class TestNetworkRegistration:
    def _run(self, n_files):
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(10e-6), rng=random.Random(0))
        net.add_host("master")
        net.add_host("srv1")
        master = CentralMaster()
        inbox = mailbox(sim, net.host("master"))

        def master_loop():
            while True:
                env = yield inbox.get()
                master.ingest(env.payload)

        sim.process(master_loop())
        manifest = [f"/store/run{i//100:04d}/f{i:06d}.root" for i in range(n_files)]
        tracker = register_over_network(
            sim,
            net,
            master,
            master_host="master",
            node="srv1",
            node_host="srv1",
            manifest=manifest,
        )
        sim.run(until=60.0)
        return master, tracker

    def test_registration_transfers_all_files(self):
        master, tracker = self._run(2500)
        assert master.manifest_files_received == 2500
        assert "srv1" in master.registered_nodes
        assert tracker.chunks == 3

    def test_payload_scales_with_file_count(self):
        _, small = self._run(100)
        _, big = self._run(10_000)
        assert big.bytes_sent > small.bytes_sent * 50

    def test_contrast_with_scalla_login_size(self):
        """The paper's point in one assert: a Scalla login is constant-size
        while a manifest upload grows without bound."""
        from repro.cluster import protocol as pr

        login = pr.estimate_size(pr.Login(node="srv1", role="server", paths=("/store",)))
        _, tracker = self._run(10_000)
        assert tracker.bytes_sent > login * 1000
