"""End-to-end observability against a live cluster, with an oracle.

The scripted workload has exactly predictable cache behaviour on a flat
(depth-1) cluster: a cold locate of an existing file costs the manager
two cache lookups (the miss that creates the location object and anchors
the waiter, then the hit when the fast-response release re-resolves it),
and every warm locate costs one lookup, one hit.  The counters must match
that oracle exactly — if instrumentation drifts off the hot path, or the
resolution flow changes shape, this fails loudly.
"""

import pytest

from repro.cluster import ScallaCluster, ScallaConfig

N_PATHS = 5
WARM_ROUNDS = 2


@pytest.fixture(scope="module")
def driven_cluster():
    cluster = ScallaCluster(4, config=ScallaConfig(seed=13, observability=True))
    paths = [f"/store/obs/f{i}.root" for i in range(N_PATHS)]
    cluster.populate(paths, size=64)
    cluster.settle()
    client = cluster.client()

    def workload():
        for _round in range(1 + WARM_ROUNDS):
            for p in paths:
                yield from client.locate(p)

    cluster.run_process(workload(), limit=600)
    return cluster


class TestCacheCountersMatchOracle:
    def test_hit_and_miss_counts(self, driven_cluster):
        m = driven_cluster.obs.metrics
        lookups = m.counter_total("cache_lookups_total")
        hits = m.counter_total("cache_hits_total")
        # Cold: 2 lookups / 1 hit per path.  Warm: 1 lookup / 1 hit.
        assert lookups == N_PATHS * (2 + WARM_ROUNDS)
        assert hits == N_PATHS * (1 + WARM_ROUNDS)
        misses = lookups - hits
        assert misses == N_PATHS  # exactly one cold miss per distinct path

    def test_resolution_and_queue_counters(self, driven_cluster):
        m = driven_cluster.obs.metrics
        total = N_PATHS * (1 + WARM_ROUNDS)
        assert m.counter_total("client_locates_total") == total
        assert m.counter_total("cmsd_locate_requests_total") == total
        # Warm locates redirect synchronously; cold ones are released by a
        # Have and counted as fast releases — together they cover the lot.
        assert m.counter_total("cmsd_redirects_total") == N_PATHS * WARM_ROUNDS
        assert (
            m.counter_total("cmsd_redirects_total")
            + m.counter_total("cmsd_fast_released_total")
        ) == total
        # Only cold locates anchor a fast-response waiter, and every one
        # was released by a Have, none expired into the full delay.
        assert m.counter_total("rq_enqueued_total") == N_PATHS
        assert m.counter_total("rq_released_total") == N_PATHS
        assert m.counter_total("rq_expired_total") == 0
        assert m.counter_total("cmsd_fast_released_total") == N_PATHS

    def test_derived_rollup_is_consistent(self, driven_cluster):
        d = driven_cluster.obs_snapshot(traces=False)["derived"]
        total = N_PATHS * (1 + WARM_ROUNDS)
        assert d["resolutions"] == total
        assert d["cache_hit_ratio"] == pytest.approx(
            (N_PATHS * (1 + WARM_ROUNDS)) / (N_PATHS * (2 + WARM_ROUNDS))
        )
        assert d["fast_release_ratio"] == 1.0
        assert d["queue_wait"]["count"] == N_PATHS
        assert 0 < d["queue_wait"]["p99"] < 0.133


class TestTraces:
    def test_every_locate_left_a_finished_trace(self, driven_cluster):
        finished = driven_cluster.obs.tracer.finished
        assert len(finished) == N_PATHS * (1 + WARM_ROUNDS)
        assert driven_cluster.obs.tracer.active_count == 0
        assert all(t.root.attrs["outcome"] == "resolved" for t in finished)

    def test_cold_trace_records_the_anchor_wait(self, driven_cluster):
        cold = driven_cluster.obs.tracer.finished[0]
        walk = {s.name for s in cold.root.children}
        assert "cmsd.locate" in walk
        waits = [
            child
            for hop in cold.root.children
            for child in hop.children
            if child.name == "rq.wait"
        ]
        (wait,) = waits
        assert wait.attrs["outcome"] == "released"
        assert 0 < wait.duration < 0.133

    def test_warm_trace_has_no_wait(self, driven_cluster):
        warm = driven_cluster.obs.tracer.finished[-1]
        spans = [c for hop in warm.root.children for c in hop.children]
        assert not any(s.name == "rq.wait" for s in spans)
        # The cache hit shows up as an event on the locate hop.
        events = [e for hop in warm.root.children for e in hop.events]
        assert any(e["name"] == "cache.lookup" and e["hit"] for e in events)


class TestDisabledPath:
    def test_observability_off_means_no_hub(self):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=13))
        assert cluster.obs is None
        with pytest.raises(RuntimeError):
            cluster.obs_snapshot()


def snapshot_values(cluster, name):
    """node -> value of every series *name* in a fresh snapshot."""
    snap = cluster.obs_snapshot(traces=False)
    return {m["labels"]["node"]: m["value"] for m in snap["metrics"] if m["name"] == name}


class TestSeriesReadLiveState:
    """Counters and gauges are read from the daemons when the snapshot is
    taken, so they track the live state and survive daemon restarts."""

    def test_restarted_supervisor_keeps_counting_into_its_series(self):
        cluster = ScallaCluster(8, config=ScallaConfig(seed=17, fanout=4, observability=True))
        sup = cluster.topology.supervisors[0]
        below = cluster.topology.nodes[sup].children
        for i, server in enumerate(below):
            cluster.place(f"/store/r/before{i}.root", server, size=64)
            cluster.place(f"/store/r/after{i}.root", server, size=64)
        cluster.settle(0.5)
        client = cluster.client()

        def locate_all(prefix):
            for i in range(len(below)):
                yield from client.locate(f"/store/r/{prefix}{i}.root")

        cluster.run_process(locate_all("before"), limit=600)
        old = cluster.node(sup).cmsd
        cluster.node(sup).crash()
        cluster.run(until=cluster.sim.now + 1.0)
        cluster.node(sup).restart()
        new = cluster.node(sup).cmsd
        assert new is not old

        # The fresh daemon knows no children yet; the dead one knew all.
        assert old.membership.member_count() == len(below)
        assert snapshot_values(cluster, "membership_online")[sup] == 0
        cluster.run(until=cluster.sim.now + 3.0)
        online = snapshot_values(cluster, "membership_online")[sup]
        assert online == len(below) == new.membership.member_count()

        cluster.run_process(locate_all("after"), limit=600)
        assert old.stats.locates > 0 and new.stats.locates > 0
        locates = snapshot_values(cluster, "cmsd_locate_requests_total")[sup]
        assert locates == old.stats.locates + new.stats.locates

    def test_cache_population_is_live_before_the_first_tick(self):
        cluster = ScallaCluster(4, config=ScallaConfig(seed=13, observability=True))
        paths = [f"/store/pop/f{i}.root" for i in range(6)]
        cluster.populate(paths, size=64)
        cluster.settle()
        client = cluster.client()

        def workload():
            for p in paths:
                yield from client.locate(p)

        cluster.run_process(workload(), limit=600)
        cache = cluster.manager_cmsd().cache
        assert cache.windows.t_w == 0  # no eviction tick yet
        population = snapshot_values(cluster, "cache_population")["mgr0"]
        assert population == cache.windows.population() == len(paths)

    def test_xrootd_load_returns_to_zero(self):
        cluster = ScallaCluster(4, config=ScallaConfig(seed=13, observability=True))
        cluster.populate([f"/store/load/f{i}.root" for i in range(8)], size=64)
        cluster.settle()
        client = cluster.client()

        def workload():
            for i in range(8):
                yield from client.open(f"/store/load/f{i}.root")

        cluster.run_process(workload(), limit=600)
        cluster.settle(0.1)  # let every request process finish
        assert sum(snapshot_values(cluster, "xrootd_opens_total").values()) == 8
        loads = snapshot_values(cluster, "xrootd_load")
        assert len(loads) == len(cluster.servers)
        assert all(v == 0 for v in loads.values())
