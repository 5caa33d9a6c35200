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


class TestFailover:
    def test_all_managers_dead_raises_unreachable(self):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=321, managers=2))
        cluster.populate(["/store/f.root"], size=32)
        cluster.settle()
        for m in cluster.managers:
            cluster.node(m).crash()
        client = cluster.client(config=ClientConfig(locate_timeout=0.2, max_failover_cycles=1))
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
    def test_retry_budget_exhaustion_raises(self):
        """A file that keeps timing out must eventually fail loudly."""
        cluster = ScallaCluster(1, config=ScallaConfig(seed=324, full_delay=0.3))
        cluster.settle()
        client = cluster.client(config=ClientConfig(max_retries=2))
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
    def test_mid_stage_crash_does_not_hang_client(self):
        """Regression: ``_open_timeout`` returned a ``1e6`` s sentinel for
        pending opens, so a server crashing mid-stage stranded the client
        for ~11 simulated days instead of entering the recovery loop."""
        from repro.sim.latency import Fixed

        cluster = ScallaCluster(
            2,
            config=ScallaConfig(seed=332, full_delay=0.5, stage_latency=Fixed(30.0)),
        )
        cluster.archive("/store/tape.root", cluster.servers[0], size=64)
        cluster.settle()
        client = cluster.client(
            config=ClientConfig(pending_open_timeout=2.0, max_retries=3)
        )

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

    def test_slow_stage_still_succeeds_within_budget(self):
        """The finite pending timeout must not break legitimate staging."""
        from repro.sim.latency import Fixed

        cluster = ScallaCluster(
            2,
            config=ScallaConfig(seed=333, full_delay=0.5, stage_latency=Fixed(30.0)),
        )
        cluster.archive("/store/tape2.root", cluster.servers[0], size=64)
        cluster.settle()
        client = cluster.client(config=ClientConfig(pending_open_timeout=120.0))
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
