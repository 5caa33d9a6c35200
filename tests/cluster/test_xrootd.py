"""Unit tests for the xrootd data server, driven by raw protocol messages."""

import random

import pytest

from repro.cluster import ScallaConfig
from repro.cluster import protocol as pr
from repro.cluster.fs import ServerFS
from repro.cluster.ids import NodeId, Role
from repro.cluster.mss import MassStorage
from repro.cluster.xrootd import XrootdServer
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network
from tests.probe import mailbox


class Harness:
    """A bare xrootd plus a test endpoint to exchange messages with it."""

    def __init__(self, *, mss=False, stage_latency=10.0):
        self.sim = Simulator()
        self.net = Network(self.sim, default_latency=Fixed(1e-6), rng=random.Random(0))
        self.inbox = mailbox(self.sim, self.net.add_host("tester"))
        self.fs = ServerFS()
        self.mss = None
        if mss:
            self.mss = MassStorage(self.sim, stage_latency=Fixed(stage_latency))
        self.cnsd_inbox = mailbox(self.sim, self.net.add_host("cnsd"))
        self.server = XrootdServer(
            self.sim,
            self.net,
            NodeId("srv0", Role.SERVER),
            self.fs,
            mss=self.mss,
            cnsd_host="cnsd",
            config=ScallaConfig(xrootd_service=Fixed(50e-6)),
        )
        self.server.start()
        self._req = 0

    def req_id(self):
        self._req += 1
        return self._req

    def ask(self, msg, limit=1000.0):
        """Send and await the reply with the matching req_id."""

        def p():
            self.net.send("tester", "srv0.xrootd", msg)
            while True:
                env = yield self.inbox.get()
                if getattr(env.payload, "req_id", None) == msg.req_id:
                    return env.payload

        return self.sim.run_until_process(self.sim.process(p()), limit=limit)

    def open(self, path, mode="r", create=False):
        return self.ask(pr.Open(self.req_id(), "tester", path, mode, create))

    def ask_quickly(self, msg):
        """``ask``, failing unless the reply comes within one round trip (a
        millisecond covers two hops, the service time and a small transfer)."""
        return self.ask(msg, limit=self.sim.now + 1e-3)

    def replies(self):
        """Every reply delivered so far: ``(req_id, type name, arrival time)``."""
        return [
            (d.payload.req_id, type(d.payload).__name__, d.delivered_at)
            for d in self.inbox.drain()
        ]


#: Transfer time of 1 MB at the default 8 ns/byte.
MB_TIME = 1_000_000 * 8e-9


class TestOpen:
    def test_open_existing(self):
        h = Harness()
        h.fs.put("/store/a", b"hello")
        resp = h.open("/store/a")
        assert isinstance(resp, pr.OpenAck)
        assert resp.size == 5

    def test_open_missing_fails_enoent(self):
        h = Harness()
        resp = h.open("/store/missing")
        assert isinstance(resp, pr.OpenFail)
        assert resp.reason == "ENOENT"
        assert h.server.open_failures == 1

    def test_create_new_file(self):
        h = Harness()
        resp = h.open("/store/new", mode="w", create=True)
        assert isinstance(resp, pr.OpenAck)
        assert h.fs.exists("/store/new")

    def test_create_existing_fails(self):
        h = Harness()
        h.fs.put("/store/a", b"x")
        resp = h.open("/store/a", mode="w", create=True)
        assert isinstance(resp, pr.OpenFail)
        assert resp.reason == "exists"

    def test_open_staging_file_waits_for_stage(self):
        h = Harness(mss=True, stage_latency=30.0)
        h.mss.archive("/store/tape", 256)
        resp = h.open("/store/tape")
        assert isinstance(resp, pr.OpenAck)
        assert resp.size == 256
        assert h.sim.now >= 30.0
        assert h.fs.exists("/store/tape")
        assert h.server.stages == 1

    def test_staged_file_served_from_disk_after(self):
        h = Harness(mss=True, stage_latency=30.0)
        h.mss.archive("/store/tape", 64)
        h.open("/store/tape")
        t0 = h.sim.now
        h.open("/store/tape")
        assert h.sim.now - t0 < 1.0  # no second stage
        assert h.mss.stages_started == 1


class TestDataOps:
    def test_read_write_roundtrip(self):
        h = Harness()
        h.fs.put("/a", b"\x00" * 10)
        ack = h.open("/a", mode="w")
        h.ask(pr.Write(h.req_id(), "tester", ack.handle, 0, b"hello"))
        resp = h.ask(pr.Read(h.req_id(), "tester", ack.handle, 0, 5))
        assert resp.data == b"hello"

    def test_read_bad_handle(self):
        h = Harness()
        resp = h.ask(pr.Read(h.req_id(), "tester", 999, 0, 5))
        assert isinstance(resp, pr.OpenFail)

    def test_close_releases_handle(self):
        h = Harness()
        h.fs.put("/a", b"x")
        ack = h.open("/a")
        h.ask(pr.Close(h.req_id(), "tester", ack.handle))
        resp = h.ask(pr.Read(h.req_id(), "tester", ack.handle, 0, 1))
        assert isinstance(resp, pr.OpenFail)

    def test_stat(self):
        h = Harness()
        h.fs.put("/a", b"abc")
        resp = h.ask(pr.Stat(h.req_id(), "tester", "/a"))
        assert resp.exists and resp.size == 3
        resp = h.ask(pr.Stat(h.req_id(), "tester", "/b"))
        assert not resp.exists

    def test_remove(self):
        h = Harness()
        h.fs.put("/a", b"x")
        resp = h.ask(pr.Remove(h.req_id(), "tester", "/a"))
        assert resp.removed
        resp = h.ask(pr.Remove(h.req_id(), "tester", "/a"))
        assert not resp.removed

    def test_list(self):
        h = Harness()
        h.fs.put("/store/a", b"")
        h.fs.put("/store/b", b"")
        resp = h.ask(pr.List(h.req_id(), "tester", "/store"))
        assert resp.names == ("/store/a", "/store/b")

    def test_read_transfer_time_scales(self):
        h = Harness()
        h.fs.put("/big", b"\x01" * 1_000_000)
        ack = h.open("/big")
        t0 = h.sim.now
        h.ask(pr.Read(h.req_id(), "tester", ack.handle, 0, 1_000_000))
        big_time = h.sim.now - t0
        t0 = h.sim.now
        h.ask(pr.Read(h.req_id(), "tester", ack.handle, 0, 10))
        small_time = h.sim.now - t0
        assert big_time > small_time * 10

    def test_write_lands_when_handle_closed_mid_transfer(self):
        h = Harness()
        h.fs.put("/a", b"")
        ack = h.open("/a", mode="w")
        data = b"\x07" * 1_000_000
        h.net.send("tester", "srv0.xrootd", pr.Write(h.req_id(), "tester", ack.handle, 0, data))
        h.sim.run(until=h.sim.now + MB_TIME / 2)  # the write is on the wire
        h.net.send("tester", "srv0.xrootd", pr.Close(h.req_id(), "tester", ack.handle))
        h.sim.run()
        assert sorted(kind for _, kind, _ in h.replies()) == ["CloseAck", "WriteAck"]
        assert h.fs.read("/a", 0, len(data)) == data
        assert h.server.bytes_written == len(data)


class TestFailedRequests:
    """A request the file system refuses gets an error reply at once."""

    def test_read_after_remove(self):
        h = Harness()
        h.fs.put("/store/a.root", b"abc")
        ack = h.open("/store/a.root")
        assert h.ask(pr.Remove(h.req_id(), "tester", "/store/a.root")).removed
        resp = h.ask_quickly(pr.Read(h.req_id(), "tester", ack.handle, 0, 3))
        assert resp == pr.OpenFail(resp.req_id, "/store/a.root", "ENOENT")
        assert h.server.load == 0.0

    def test_write_after_remove(self):
        h = Harness()
        h.fs.put("/store/a.root", b"")
        ack = h.open("/store/a.root", mode="w")
        h.fs.remove("/store/a.root")
        resp = h.ask_quickly(pr.Write(h.req_id(), "tester", ack.handle, 0, b"xyz"))
        assert resp == pr.OpenFail(resp.req_id, "/store/a.root", "ENOENT")
        assert not h.fs.exists("/store/a.root")
        assert h.server.load == 0.0

    def test_negative_offset(self):
        h = Harness()
        h.fs.put("/a", b"abc")
        ack = h.open("/a")
        resp = h.ask_quickly(pr.Read(h.req_id(), "tester", ack.handle, -1, 2))
        assert isinstance(resp, pr.OpenFail)
        assert resp.reason == "negative offset/length"
        assert h.server.load == 0.0

    def test_handler_exception_propagates(self):
        """A bug in a request handler stops the run instead of vanishing."""
        h = Harness()
        h.fs.put("/a", b"abc")

        def broken_stat(path):
            raise RuntimeError("disk on fire")

        h.fs.stat = broken_stat
        h.net.send("tester", "srv0.xrootd", pr.Stat(h.req_id(), "tester", "/a"))
        with pytest.raises(RuntimeError, match="disk on fire"):
            h.sim.run()


class TestConcurrency:
    def test_stage_does_not_block_other_requests(self):
        """A minutes-long stage must not serialize the daemon."""
        h = Harness(mss=True, stage_latency=100.0)
        h.mss.archive("/tape", 1)
        h.fs.put("/disk", b"x")
        done = []

        def slow():
            self_req = pr.Open(900, "tester", "/tape", "r", False)
            h.net.send("tester", "srv0.xrootd", self_req)
            return
            yield

        def fast():
            req = pr.Open(901, "tester", "/disk", "r", False)
            h.net.send("tester", "srv0.xrootd", req)
            while True:
                env = yield h.inbox.get()
                if getattr(env.payload, "req_id", None) == 901:
                    done.append(h.sim.now)
                    return

        h.sim.process(slow())
        h.sim.process(fast())
        h.sim.run(until=5.0)
        assert done and done[0] < 1.0

    def test_one_nic_serves_reads_in_arrival_order(self):
        h = Harness()
        h.fs.put("/big", b"\x01" * 1_000_000)
        ack = h.open("/big")
        first, second = h.req_id(), h.req_id()
        for req in (first, second):
            h.net.send("tester", "srv0.xrootd", pr.Read(req, "tester", ack.handle, 0, 1_000_000))
        h.sim.run()
        (r1, _, t1), (r2, _, t2) = h.replies()
        assert (r1, r2) == (first, second)
        assert t2 - t1 == pytest.approx(MB_TIME)

    def test_reads_on_two_servers_overlap(self):
        h = Harness()
        other = XrootdServer(h.sim, h.net, NodeId("srv1", Role.SERVER), ServerFS())
        other.start()
        hosts = ("srv0.xrootd", "srv1.xrootd")
        for host, server in zip(hosts, (h.server, other)):
            server.fs.put("/big", b"\x01" * 1_000_000)
            h.net.send("tester", host, pr.Open(h.req_id(), "tester", "/big", "r", False))
        h.sim.run()
        handles = [d.payload.handle for d in h.inbox.drain()]
        t0 = h.sim.now
        for host, handle in zip(hosts, handles):
            h.net.send("tester", host, pr.Read(h.req_id(), "tester", handle, 0, 1_000_000))
        h.sim.run()
        times = [t for _, _, t in h.replies()]
        assert len(times) == 2
        assert max(times) - t0 < 1.5 * MB_TIME

    def test_request_in_service_completes_after_stop(self):
        h = Harness()
        h.fs.put("/a", b"abc")
        h.net.send("tester", "srv0.xrootd", pr.Stat(7, "tester", "/a"))
        h.sim.run(until=20e-6)  # delivered, service time not over yet
        assert h.server.load > 0.0
        h.server.stop()
        h.sim.run()
        assert [(r, kind) for r, kind, _ in h.replies()] == [(7, "StatAck")]
        assert h.server.load == 0.0

    @pytest.mark.parametrize("kind", ["bad handle", "unknown", "staged open", "read", "write"])
    def test_load_returns_to_zero(self, kind):
        h = Harness(mss=True, stage_latency=5.0)
        h.mss.archive("/tape", 8)
        h.fs.put("/a", b"abcd")
        ack = h.open("/a", mode="w")
        msg = {
            "bad handle": pr.Read(h.req_id(), "tester", 999, 0, 1),
            "unknown": pr.Wait(h.req_id(), "/a", 1.0),
            "staged open": pr.Open(h.req_id(), "tester", "/tape", "r", False),
            "read": pr.Read(h.req_id(), "tester", ack.handle, 0, 4),
            "write": pr.Write(h.req_id(), "tester", ack.handle, 0, b"wxyz"),
        }[kind]
        h.net.send("tester", "srv0.xrootd", msg)
        h.sim.run(until=h.sim.now + 20e-6)
        assert h.server.load > 0.0
        h.sim.run()
        assert h.server.load == 0.0

    def test_load_metric_reflects_activity(self):
        h = Harness(mss=True, stage_latency=50.0)
        h.mss.archive("/tape", 1)
        h.net.send("tester", "srv0.xrootd", pr.Open(1, "tester", "/tape", "r", False))
        h.sim.run(until=1.0)
        assert h.server.load > 0.0
        h.sim.run(until=100.0)
        assert h.server.load == 0.0


class TestNamespaceNotifications:
    def test_create_and_remove_notify_cnsd(self):
        h = Harness()
        h.open("/store/new", mode="w", create=True)
        h.ask(pr.Remove(h.req_id(), "tester", "/store/new"))
        h.sim.run()
        ops = [e.payload.op for e in h.cnsd_inbox.drain()]
        assert ops == ["create", "remove"]

    def test_free_space_decreases(self):
        h = Harness()
        before = h.server.free_space
        h.fs.put("/a", b"\x00" * 1000)
        assert h.server.free_space == before - 1000
