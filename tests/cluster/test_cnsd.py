"""Unit tests for the Cluster Name Space daemon."""

import random

import pytest

from repro.cluster import protocol as pr
from repro.cluster.cnsd import CnsDaemon
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network
from tests.probe import mailbox


def make():
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(1e-6), rng=random.Random(0))
    cnsd = CnsDaemon(sim, net)
    cnsd.start()
    return sim, net, cnsd


class TestApply:
    def test_create_and_list(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/store/a", "create")
        cnsd.apply("srv2", "/store/b", "create")
        assert cnsd.list("/store") == ["/store/a", "/store/b"]
        assert cnsd.file_count() == 2

    def test_multiple_holders(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        cnsd.apply("srv2", "/a", "create")
        assert cnsd.holders("/a") == {"srv1", "srv2"}

    def test_remove_last_holder_drops_path(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        cnsd.apply("srv1", "/a", "remove")
        assert cnsd.list() == []

    def test_remove_one_of_two_holders(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        cnsd.apply("srv2", "/a", "create")
        cnsd.apply("srv1", "/a", "remove")
        assert cnsd.holders("/a") == {"srv2"}

    def test_remove_unknown_is_noop(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/ghost", "remove")
        assert cnsd.list() == []

    def test_repeated_create_is_idempotent(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        cnsd.apply("srv1", "/a", "create")
        assert cnsd.holders("/a") == {"srv1"}
        assert cnsd.file_count() == 1
        assert cnsd.updates == 2  # every update counts, even a no-op

    def test_removing_last_holder_deletes_path(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        cnsd.apply("srv2", "/a", "create")
        cnsd.apply("srv2", "/a", "remove")
        cnsd.apply("srv1", "/a", "remove")
        assert cnsd.holders("/a") == set()
        assert cnsd.file_count() == 0
        assert cnsd.list() == []
        cnsd.apply("srv3", "/a", "create")  # a later create starts afresh
        assert cnsd.holders("/a") == {"srv3"}

    def test_removing_a_non_holder_keeps_path(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        cnsd.apply("srv2", "/a", "remove")
        assert cnsd.holders("/a") == {"srv1"}
        assert cnsd.updates == 2

    def test_holders_returns_an_independent_set(self):
        _, _, cnsd = make()
        cnsd.apply("srv1", "/a", "create")
        got = cnsd.holders("/a")
        assert isinstance(got, set)
        got.add("intruder")
        assert cnsd.holders("/a") == {"srv1"}

    def test_queries_over_many_holders(self):
        _, _, cnsd = make()
        for i in range(5):
            cnsd.apply(f"srv{i}", "/store/x", "create")
            cnsd.apply(f"srv{i}", f"/store/only{i}", "create")
        cnsd.apply("srv2", "/store/x", "remove")
        assert cnsd.holders("/store/x") == {"srv0", "srv1", "srv3", "srv4"}
        assert cnsd.list("/store/only") == [f"/store/only{i}" for i in range(5)]
        assert cnsd.file_count() == 6

    def test_bad_op_rejected(self):
        _, _, cnsd = make()
        with pytest.raises(ValueError):
            cnsd.apply("srv1", "/a", "rename")


class TestOverTheWire:
    def test_namespace_update_message(self):
        sim, net, cnsd = make()
        tester = net.add_host("tester")
        net.send("tester", "cnsd", pr.NamespaceUpdate(node="srv9", path="/x", op="create"))
        sim.run()
        assert cnsd.holders("/x") == {"srv9"}

    def test_list_request_reply(self):
        sim, net, cnsd = make()
        tester = mailbox(sim, net.add_host("tester"))
        cnsd.apply("srv1", "/store/a", "create")
        cnsd.apply("srv1", "/other/b", "create")
        got = []

        def p():
            net.send("tester", "cnsd", pr.List(req_id=5, reply_to="tester", prefix="/store"))
            env = yield tester.get()
            got.append(env.payload)

        sim.run_until_process(sim.process(p()))
        assert got[0].names == ("/store/a",)
