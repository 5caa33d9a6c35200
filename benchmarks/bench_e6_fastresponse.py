"""E6 — §III-B: the fast response queue vs the conservative full delay.

Paper claims reproduced here (simulated time):

* with the fast response queue, a cold lookup of an *existing* file is
  answered in about one server response time (~100-150 µs measured),
  "without risking a missed response";
* without it (ablation: ``fast_response=False``), the same lookup costs the
  full conservative delay (~5 s) — a ~30,000x latency gap;
* non-existent files cost the full delay either way (silence is the only
  negative signal);
* the 133 ms clocking bound comfortably covers even heavy-tailed server
  response times (log-normal tail test: zero missed responses).
"""

from repro.cluster import ScallaCluster, ScallaConfig
from repro.sim.latency import LogNormal
from repro.sim.monitor import Histogram

from reporting import record, record_snapshot, us

N_FILES = 50


def run_cluster(fast_response: bool, *, server_latency=None):
    cfg = ScallaConfig(seed=71, fast_response=fast_response, observability=True)
    if server_latency is not None:
        cfg.server_service = server_latency
    cluster = ScallaCluster(16, config=cfg)
    paths = [f"/store/e6/f{i}.root" for i in range(N_FILES)]
    cluster.populate(paths, size=256)
    cluster.settle()
    lat = Histogram()
    client = cluster.client()

    def probe():
        for p in paths:
            t0 = cluster.sim.now
            yield from client.locate(p)
            lat.record(cluster.sim.now - t0)

    cluster.run_process(probe(), limit=1000)
    return cluster, lat.summary()


def test_fast_response_vs_full_delay(benchmark):
    def run():
        c1, with_queue = run_cluster(True)
        _c2, without = run_cluster(False)
        snap = c1.obs_snapshot(extra={"experiment": "E6", "design": "fast-response"})
        return with_queue, without, snap

    with_queue, without, snap = benchmark.pedantic(run, rounds=1, iterations=1)
    # The snapshot carries the acceptance metrics: queue-wait percentiles
    # from the manager's fast response queue, hit ratio, message fanout.
    d = snap["derived"]
    assert d["resolutions"] == N_FILES
    assert d["queue_wait"]["count"] > 0, "no anchors waited — queue never engaged?"
    assert 0 < d["queue_wait"]["p50"] <= d["queue_wait"]["p99"] < 0.133
    assert d["fast_release_ratio"] == 1.0, "some waiters expired instead of releasing"
    assert d["messages_per_resolution"] > 0
    record_snapshot("E6", snap)
    record(
        "E6",
        "cold locate of existing files: fast response queue vs full delay",
        ["design", "mean", "p95", "max"],
        [
            ("fast response queue (paper)", us(with_queue.mean), us(with_queue.p95), us(with_queue.maximum)),
            ("full-delay only (ablation)", us(without.mean), us(without.p95), us(without.maximum)),
            ("speedup", f"{without.mean / with_queue.mean:.0f}x", "", ""),
        ],
        notes=(
            "Paper: ~100us server responses make the 5s conservative wait "
            "unnecessary for files that exist; the queue recovers 4 orders "
            "of magnitude."
        ),
    )
    # With the queue: about one query round trip (well under 1 ms).
    assert with_queue.mean < 1e-3
    # Without: every cold locate eats the full 5 s delay.
    assert without.mean > 4.9
    assert without.mean / with_queue.mean > 1000


def test_nonexistent_files_cost_full_delay_regardless(benchmark):
    def run():
        cluster = ScallaCluster(8, config=ScallaConfig(seed=72))
        cluster.populate(["/store/real.root"], size=64)
        cluster.settle()
        client = cluster.client()
        t0 = cluster.sim.now

        def probe():
            from repro.cluster.client import NoSuchFile

            try:
                yield from client.locate("/store/ghost.root")
            except NoSuchFile:
                return cluster.sim.now - t0
            raise AssertionError("ghost file resolved?!")

        return cluster.run_process(probe(), limit=120), cluster.config.full_delay

    elapsed, full_delay = benchmark.pedantic(run, rounds=1, iterations=1)
    assert elapsed >= full_delay
    record(
        "E6-negative",
        "non-existence verdict requires the full conservative wait",
        ["full delay configured", "measured time to NotFound"],
        [(f"{full_delay:.1f}s", f"{elapsed:.2f}s")],
        notes="Silence is the only negative signal; no queue can shorten it.",
    )


def run_wan_locate(*, settle: float = 0.5, **config_kwargs):
    """Cold locate of an existing file over an 80 ms one-way site link.

    Returns (elapsed seconds, manager CmsdStats, manager ResponseQueue).
    Shared by this bench, the integration tests, and perf_wan.
    """
    from repro.cluster.ids import cmsd_host, xrootd_host
    from repro.sim.latency import Uniform

    cluster = ScallaCluster(4, config=ScallaConfig(seed=74, **config_kwargs))
    net = cluster.network
    remote = [h for s in cluster.servers for h in (cmsd_host(s), xrootd_host(s))]
    net.federate(
        {"remote": remote, "hq": [cmsd_host(cluster.managers[0])]},
        wan_latency=Uniform(78e-3, 82e-3),
    )
    cluster.populate(["/store/wan.root"], size=64)
    cluster.settle(settle)
    client = cluster.client()
    net.set_host_site(client.host.name, "hq")
    t0 = cluster.sim.now

    def probe():
        yield from client.locate("/store/wan.root")
        return cluster.sim.now - t0

    elapsed = cluster.run_process(probe(), limit=120)
    mgr = cluster.manager_cmsd()
    return elapsed, mgr.stats, mgr.rq


def test_wan_window_fix(benchmark):
    """The 133 ms constant assumes LAN response times; the fix unmakes that.

    With an 80 ms one-way WAN link between manager and servers (a
    transatlantic federation, §IV-A), query responses arrive after ~160 ms
    — beyond the window — so at seed every cold lookup of an *existing*
    file degraded to the full 5 s wait.  Late-response reconciliation
    (default on) releases the parked client the moment the answer lands
    (~160 ms, one WAN query round trip); the window itself stays 133 ms.
    """

    def run():
        before, _, _ = run_wan_locate(late_release=False)
        late, st_late, _ = run_wan_locate()
        return before, late, st_late

    before, late, st_late = benchmark.pedantic(run, rounds=1, iterations=1)
    assert before > 5.0  # seed behaviour: degraded to the full delay
    assert late < 0.3 and st_late.late_released >= 1
    record(
        "E6-wan",
        "cold locate over an 80ms WAN link, before/after the window fix",
        ["design", "cold locate"],
        [
            ("133ms window, late answers dropped (seed)", f"{before:.2f}s"),
            ("late-response reconciliation (default)", f"{late * 1e3:.0f}ms"),
        ],
        notes=(
            "At seed, responses landing after the window were treated as "
            "absent and the client ate the 5 s wait.  A late answer now "
            "releases the parked client immediately: the cold locate costs "
            "one WAN query round trip."
        ),
    )


def test_133ms_bound_covers_heavy_tails(benchmark):
    """Log-normal server response (median 100us, sigma 1.0 — p99 ~1ms):
    every request must still be satisfied by the queue, none falling back
    to the full delay."""

    def run():
        cluster, summary = run_cluster(
            True, server_latency=LogNormal(median=100e-6, sigma=1.0)
        )
        mgr = cluster.manager_cmsd()
        return summary, mgr.rq.fast_responses, mgr.rq.timeouts

    summary, fast, timeouts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert timeouts == 0, f"{timeouts} requests missed the 133ms window"
    assert summary.maximum < 0.133
    record(
        "E6-margin",
        "133ms clocking vs heavy-tailed (log-normal) server responses",
        ["queue releases", "queue timeouts", "max locate", "window"],
        [(fast, timeouts, us(summary.maximum), "133ms")],
        notes="'a comfortable margin of safety': even the p100 tail fits the window.",
    )
