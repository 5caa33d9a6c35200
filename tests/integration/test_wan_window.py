"""Integration: the deadline-aware fast-response window on WAN federations.

EXPERIMENTS.md finding #4 (now fixed): with an 80 ms one-way site link the
133 ms fast-response window expires before query responses can possibly
arrive, so at seed every cold locate of an *existing* remote file silently
degraded to the full 5 s conservative wait.  The window stays the paper's
fixed 133 ms; these tests pin the one mechanism that fixes the stall:

* late-response reconciliation (default on) releases the parked client the
  moment the straggling ``HaveFile`` lands (~2x one-way latency), however
  long the cluster has settled;
* a file that exists nowhere still ends in ``NoSuchFile`` after the full
  delay, not before and not later;
* on a LAN, behaviour is indistinguishable from the paper's fixed window —
  the fix is inert where the bug was not.
"""

import pytest

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.client import NoSuchFile
from repro.core.response_queue import DEFAULT_PERIOD
from repro.workloads.wan import cold_locate, wan_federation


class TestLateRelease:
    def test_seed_behaviour_degrades_to_full_delay(self):
        """The "before" row: late answers help nobody, clients eat 5 s."""
        cluster = wan_federation(late_release=False)
        elapsed, _ = cold_locate(cluster)
        assert elapsed > 5.0
        assert cluster.manager_cmsd().stats.late_released == 0

    @pytest.mark.parametrize("settle", [0.5, 2.5])
    def test_late_response_releases_parked_client(self, settle):
        cluster = wan_federation(settle)  # defaults: late_release on
        elapsed, client = cold_locate(cluster)
        mgr = cluster.manager_cmsd()
        # Released at ~2x one-way (query out + response back), not 5 s.
        assert elapsed < 0.3
        assert mgr.stats.late_released == 1
        assert mgr.rq.timeouts >= 1  # the window did expire...
        assert client.stats.waits == 1  # ...and the client was parked once

    def test_parked_registry_drains(self):
        cluster = wan_federation()
        cold_locate(cluster)
        cluster.run(until=cluster.sim.now + 2 * cluster.config.full_delay)
        assert cluster.manager_cmsd().rq.parked_waiters() == 0


class TestNonexistentOverWan:
    def test_ghost_file_ends_after_the_full_delay(self):
        """A file that exists nowhere: no answer can come, so the window
        expires, the client sits out one full delay, and its retry hears
        NoSuchFile at once — not sooner, and no later."""
        cluster = wan_federation(2.5, full_delay=2.0)
        client = cluster.client()
        cluster.network.set_host_site(client.host.name, "hq")
        t0 = cluster.sim.now
        with pytest.raises(NoSuchFile):
            cluster.run_process(client.locate("/store/ghost.root"), limit=120)
        elapsed = cluster.sim.now - t0
        assert elapsed == pytest.approx(DEFAULT_PERIOD + cluster.config.full_delay, abs=1e-3)
        assert client.stats.waits == 1


class TestLanUnchanged:
    def make_lan(self, **config_kwargs):
        cluster = ScallaCluster(4, config=ScallaConfig(seed=74, **config_kwargs))
        cluster.populate(["/store/lan.root"], size=64)
        cluster.settle()
        return cluster

    def test_lan_timing_identical_with_and_without_late_release(self):
        """On a LAN no response is ever late, so the fix must be inert:
        same locate latency, same message count, bit for bit."""
        results = []
        for late_release in (True, False):
            cluster = self.make_lan(late_release=late_release)
            client = cluster.client()
            t0 = cluster.sim.now

            def probe(client=client, cluster=cluster):
                yield from client.locate("/store/lan.root")
                return cluster.sim.now - t0

            elapsed = cluster.run_process(probe(), limit=60)
            results.append((elapsed, cluster.network.stats.sent))
        assert results[0] == results[1]

    def test_lan_fast_release_unaffected(self):
        cluster = self.make_lan()
        elapsed, _ = cold_locate_lan(cluster)
        mgr = cluster.manager_cmsd()
        assert elapsed < 1e-3
        assert mgr.rq.fast_responses >= 1
        assert mgr.rq.timeouts == 0
        assert mgr.stats.late_released == 0


def cold_locate_lan(cluster, path="/store/lan.root"):
    client = cluster.client()
    t0 = cluster.sim.now

    def probe():
        yield from client.locate(path)
        return cluster.sim.now - t0

    return cluster.run_process(probe(), limit=60), client


class TestAnchorExhaustionVisibility:
    def test_rejection_counted_in_stats(self):
        """Anchor exhaustion used to be invisible outside the queue's own
        counter; it now shows up in CmsdStats (and on traces)."""
        cluster = ScallaCluster(2, config=ScallaConfig(seed=75, full_delay=0.5))
        # Shrink the queue to one anchor so the second distinct path rejects.
        cluster.settle()
        mgr = cluster.manager_cmsd()
        from repro.core.response_queue import ResponseQueue

        mgr.rq = ResponseQueue(anchors=1, period=DEFAULT_PERIOD)
        client = cluster.client()

        def probe():
            from repro.cluster.client import NoSuchFile

            def one(path):
                try:
                    yield from client.locate(path)
                except NoSuchFile:
                    pass

            p1 = cluster.sim.process(one("/store/gone-a.root"))
            p2 = cluster.sim.process(one("/store/gone-b.root"))
            yield cluster.sim.all_of([p1, p2])

        cluster.run_process(probe(), limit=60)
        assert mgr.stats.rq_rejected >= 1
        assert mgr.rq.rejected >= 1
