"""Client edge cases: failover, budgets, and error surfaces."""

import pytest

from repro.cluster import (
    ClientConfig,
    ClusterUnreachable,
    NoSuchFile,
    ScallaCluster,
    ScallaConfig,
    ScallaError,
)
from repro.cluster import client as client_mod
from repro.cluster import protocol as pr
from repro.cluster.client import ScallaClient
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network


class TestFailover:
    def test_all_managers_dead_raises_unreachable(self, monkeypatch):
        monkeypatch.setattr(client_mod, "MAX_FAILOVER_CYCLES", 1)
        cluster = ScallaCluster(2, config=ScallaConfig(seed=321, managers=2))
        cluster.populate(["/store/f.root"], size=32)
        cluster.settle()
        for m in cluster.managers:
            cluster.node(m).crash()
        client = cluster.client(config=ClientConfig(locate_timeout=0.2))
        with pytest.raises(ClusterUnreachable):
            cluster.run_process(client.open("/store/f.root"), limit=120)

    def test_failover_count_visible_in_stats(self):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=322, managers=2))
        cluster.populate(["/store/f.root"], size=32)
        cluster.settle()
        cluster.node(cluster.managers[0]).crash()
        client = cluster.client(config=ClientConfig(locate_timeout=0.2))
        res = cluster.run_process(client.open("/store/f.root"), limit=120)
        assert res.size == 32
        assert client.stats.failovers >= 1

    def test_dead_server_triggers_refresh_and_avoid(self):
        cluster = ScallaCluster(
            3,
            config=ScallaConfig(
                seed=323, heartbeat_interval=0.2, disconnect_timeout=0.7
            ),
        )
        cluster.populate(["/store/f.root"], copies=2, size=32)
        cluster.settle()
        first = cluster.run_process(cluster.client().open("/store/f.root"), limit=60)
        # Balance the round-robin selection counts so the next pick is the
        # node we are about to kill (tie broken by slot order = first.node).
        cluster.run_process(cluster.client().open("/store/f.root"), limit=60)
        # Kill the chosen server but do NOT let heartbeats catch up: the
        # client must discover the death through the failed open itself.
        cluster.node(first.node).crash()
        client = cluster.client(config=ClientConfig(op_timeout=0.3))
        res = cluster.run_process(client.open("/store/f.root"), limit=120)
        assert res.node != first.node
        assert client.stats.refreshes >= 1


class TestBudgets:
    def test_retry_budget_exhaustion_raises(self, monkeypatch):
        """A file that keeps timing out must eventually fail loudly."""
        monkeypatch.setattr(client_mod, "MAX_RETRIES", 2)
        cluster = ScallaCluster(1, config=ScallaConfig(seed=324, full_delay=0.3))
        cluster.settle()
        client = cluster.client()
        # Non-existent file: Wait -> retry -> NotFound. With retries capped
        # at 2 the client either sees NoSuchFile (clean) — never hangs.
        with pytest.raises((NoSuchFile, ScallaError)):
            cluster.run_process(client.open("/store/never.root"), limit=120)

    def test_stat_missing_does_not_raise(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=325, full_delay=0.3))
        cluster.settle()
        exists, size = cluster.run_process(cluster.client().stat("/store/no"), limit=60)
        assert (exists, size) == (False, 0)

    def test_remove_missing_does_not_raise(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=326, full_delay=0.3))
        cluster.settle()
        assert not cluster.run_process(cluster.client().remove("/store/no"), limit=60)


class TestPendingOpens:
    def test_mid_stage_crash_does_not_hang_client(self, monkeypatch):
        """Regression: the open timeout was a ``1e6`` s sentinel for
        pending opens, so a server crashing mid-stage stranded the client
        for ~11 simulated days instead of entering the recovery loop."""
        from repro.sim.latency import Fixed

        cluster = ScallaCluster(
            2,
            config=ScallaConfig(seed=332, full_delay=0.5, stage_latency=Fixed(30.0)),
        )
        cluster.archive("/store/tape.root", cluster.servers[0], size=64)
        cluster.settle()
        monkeypatch.setattr(client_mod, "PENDING_OPEN_TIMEOUT", 2.0)
        monkeypatch.setattr(client_mod, "MAX_RETRIES", 3)
        client = cluster.client()

        def scenario():
            try:
                yield from client.open("/store/tape.root")
            except ScallaError:
                return cluster.sim.now
            raise AssertionError("open succeeded against a crashed stager")

        proc = cluster.sim.process(scenario())
        # Let the pending redirect land and the stage get underway...
        cluster.run(until=cluster.sim.now + 1.0)
        # ...then kill the only server that could ever produce the file.
        cluster.node(cluster.servers[0]).crash()
        t_end = cluster.sim.run_until_process(proc, limit=600)
        # Failure surfaces within a few timeout/retry rounds, not 1e6 s.
        assert t_end is not None and t_end < 60.0

    def test_slow_stage_still_succeeds_within_budget(self, monkeypatch):
        """The finite pending timeout must not break legitimate staging."""
        monkeypatch.setattr(client_mod, "PENDING_OPEN_TIMEOUT", 120.0)
        from repro.sim.latency import Fixed

        cluster = ScallaCluster(
            2,
            config=ScallaConfig(seed=333, full_delay=0.5, stage_latency=Fixed(30.0)),
        )
        cluster.archive("/store/tape2.root", cluster.servers[0], size=64)
        cluster.settle()
        client = cluster.client()
        res = cluster.run_process(client.open("/store/tape2.root"), limit=300)
        assert res.size == 64
        assert res.latency >= 30.0


class TestDataPlaneErrors:
    def test_read_with_stale_handle_raises(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=327))
        cluster.populate(["/store/f.root"], size=32)
        cluster.settle()
        client = cluster.client()
        res = cluster.run_process(client.open("/store/f.root"), limit=60)
        cluster.run_process(client.close(res), limit=60)
        with pytest.raises(ScallaError):
            cluster.run_process(client.read(res, 0, 4), limit=60)

    def test_read_of_removed_file_fails_at_once(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=327))
        cluster.populate(["/store/a.root"], size=32)
        cluster.settle()
        reader, remover = cluster.client(), cluster.client()
        res = cluster.run_process(reader.open("/store/a.root"), limit=60)
        assert cluster.run_process(remover.remove("/store/a.root"), limit=60)
        t0 = cluster.sim.now
        with pytest.raises(ScallaError, match="ENOENT"):
            cluster.run_process(reader.read(res, 0, 4), limit=60)
        assert cluster.sim.now - t0 < reader.config.op_timeout / 100

    def test_fetch_empty_file(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=328))
        cluster.place("/store/empty.root", cluster.servers[0], data=b"")
        cluster.settle()
        data = cluster.run_process(cluster.client().fetch("/store/empty.root"), limit=60)
        assert data == b""

    def test_fetch_large_file_chunked(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=329))
        payload = bytes(range(256)) * 1024  # 256 KiB
        cluster.place("/store/big.root", cluster.servers[0], data=payload)
        cluster.settle()
        data = cluster.run_process(
            cluster.client().fetch("/store/big.root", chunk=64 * 1024), limit=60
        )
        assert data == payload


class TestRequestCorrelation:
    def test_interleaved_requests_route_by_req_id(self):
        """Two in-flight operations from one client must not cross wires."""
        cluster = ScallaCluster(2, config=ScallaConfig(seed=330))
        cluster.place("/store/a.root", cluster.servers[0], data=b"AAAA")
        cluster.place("/store/b.root", cluster.servers[1], data=b"BBBB")
        cluster.settle()
        client = cluster.client()
        results = {}

        def fetcher(path, key):
            results[key] = yield from client.fetch(path)

        p1 = cluster.sim.process(fetcher("/store/a.root", "a"))
        p2 = cluster.sim.process(fetcher("/store/b.root", "b"))

        def both():
            yield cluster.sim.all_of([p1, p2])

        cluster.run_process(both(), limit=60)
        assert results["a"] == b"AAAA"
        assert results["b"] == b"BBBB"

    def test_late_reply_after_timeout_is_dropped(self):
        """A reply arriving after the client failed over must be ignored."""
        cluster = ScallaCluster(1, config=ScallaConfig(seed=331, managers=2))
        cluster.populate(["/store/f.root"], size=32)
        cluster.settle()
        # Partition the client from mgr0 so its first locate times out, then
        # heal: the late reply (if queued) must not corrupt the next request.
        client = cluster.client(config=ClientConfig(locate_timeout=0.3))
        cluster.network.partition(client.host.name, "mgr0.cmsd")
        res = cluster.run_process(client.open("/store/f.root"), limit=120)
        assert res.size == 32
        cluster.network.heal(client.host.name, "mgr0.cmsd")
        res2 = cluster.run_process(client.open("/store/f.root"), limit=120)
        assert res2.size == 32


class TestReplyWaits:
    """``_request`` waits on one reply event plus a deadline; a reply or an
    expiry must only ever resolve the request it belongs to."""

    def _setup(self, reply_delays):
        """A client and an echo host answering its n-th Stat after
        ``reply_delays[n]`` simulated seconds (None: never)."""
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(0.01))
        echo = net.add_host("echo")
        client = ScallaClient(sim, net, "c", ("mgr0",))
        delays = list(reply_delays)

        def answer(msg):
            net.send("echo", msg.reply_to, pr.StatAck(msg.req_id, True, msg.req_id))

        def receive(src, msg, sent_at):
            delay = delays.pop(0)
            if delay is not None:
                sim.call_at(sim.now + delay, answer, msg)

        echo.listen(receive)
        return sim, client

    def _stat(self, client, timeout):
        msg = pr.Stat(client._req_id(), client.host.name, "/store/x")
        reply = yield from client._request("echo", msg, timeout)
        return client.sim.now, reply

    def test_late_reply_is_ignored(self):
        sim, client = self._setup([2.0, 0.0])
        t, reply = sim.run_until_process(sim.process(self._stat(client, 1.0)))
        assert (t, reply) == (1.0, None)
        sim.run(until=3.0)  # the late StatAck arrives and finds nobody
        assert client._pending == {}
        t, reply = sim.run_until_process(sim.process(self._stat(client, 1.0)))
        assert isinstance(reply, pr.StatAck) and reply.req_id == 2

    def test_expiry_does_not_resolve_a_later_request(self):
        """Request 1 is answered early; its expiry at t=5 must not cut
        short request 2, whose reply arrives at t=6."""
        sim, client = self._setup([0.0, 5.9])
        _, first = sim.run_until_process(sim.process(self._stat(client, 5.0)))
        assert first.req_id == 1
        t, second = sim.run_until_process(sim.process(self._stat(client, 10.0)))
        assert second is not None and second.req_id == 2
        assert t == pytest.approx(0.02 + 0.02 + 5.9)


class TestDeadlineTimer:
    """The client keeps one deadline entry queued, for its earliest
    outstanding request; an answered request leaves nothing behind."""

    _setup = TestReplyWaits._setup
    _stat = TestReplyWaits._stat

    def test_answered_requests_leave_no_heap_entries(self):
        sim, client = self._setup([0.0] * 100)
        grown = []

        def job():
            depth = len(sim._heap)
            for _ in range(100):
                _, reply = yield from self._stat(client, 10.0)
                assert reply is not None
                grown.append(len(sim._heap) - depth)

        sim.run_until_process(sim.process(job()))
        assert sim.now == pytest.approx(100 * 0.02)
        assert max(grown) == 1
        sim.run()  # the one entry fires, finds nothing due and queues nothing
        assert client._armed is None and client._pending == {}

    def test_timeout_resolves_in_its_own_slot(self):
        """The expiry runs at send + timeout in the slot the deadline took
        when the request was sent: after a callback for that instant queued
        before the send, ahead of one queued after it."""
        sim, client = self._setup([None])
        seen = []

        def probe(tag):
            seen.append((tag, sim.now, 1 in client._pending))

        sim.call_at(1.0, probe, "queued before")
        proc = sim.process(self._stat(client, 1.0))
        # Runs right after the process has sent its Stat.
        sim.call_at(0.0, lambda _a: sim.call_at(1.0, probe, "queued after"), None)
        t, reply = sim.run_until_process(proc)
        assert (t, reply) == (1.0, None)
        assert seen == [("queued before", 1.0, True), ("queued after", 1.0, False)]

    def test_later_request_with_earlier_deadline(self):
        """Request 2 is sent after request 1 but expires first: both expire
        at their own deadlines, and request 1's entry, queued when it was
        sent, is not queued a second time."""
        sim, client = self._setup([None, None])
        slow = sim.process(self._stat(client, 5.0))
        sim.run(until=0.5)
        fast = sim.process(self._stat(client, 1.0))
        sim.run_until_process(fast)
        assert fast.value == (1.5, None)
        assert 1 in client._pending and 2 not in client._pending
        # One entry left, in request 1's slot: no slot holds two entries.
        slots = [entry[:2] for entry in sim._heap]
        assert len(set(slots)) == len(slots)
        assert [entry[:2] for entry in sim._heap if entry[2] == client._on_deadline] == [
            client._armed[:2]
        ]
        assert sim.run_until_process(slow) == (5.0, None)
        assert client._pending == {} and client._armed is None
        sim.run()
        assert sim.now == 5.0



class TestFinishedClientMemory:
    """A client whose requests are all answered or expired holds no
    request table: an emptied dict keeps the table it grew."""

    def test_request_table_is_freed_when_the_last_request_leaves(self):
        import inspect
        import tracemalloc

        source, first = inspect.getsourcelines(ScallaClient._await_reply)
        line = first + next(
            i for i, text in enumerate(source) if "self._pending[req_id] =" in text
        )
        cluster = ScallaCluster(4, config=ScallaConfig(seed=5))
        cluster.populate(["/store/f.root"])
        cluster.settle()
        n = 200
        tracemalloc.start()
        try:
            clients = []
            for i in range(n):
                client = cluster.client(f"c{i}")
                handle = cluster.run_process(client.open("/store/f.root"))
                cluster.run_process(client.close(handle))
                clients.append(client)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.statistics("lineno")
            if stat.traceback[0].filename == client_mod.__file__
            and stat.traceback[0].lineno == line
        )
        assert all(c._pending == {} for c in clients)
        assert held < 8 * n  # was 160 B per finished client
