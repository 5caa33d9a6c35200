"""E14 (extension) — interior-node failover: re-homing vs the seed behaviour.

The paper treats every interior node as replaceable ("any component can be
replaced without disrupting the system", §VI), but the seed reproduction
only healed a supervisor outage when the *same host* came back.  This bench
quantifies the fault-tolerance tentpole: a supervisor crashes and never
restarts, its subtree holds the only copies of the probe files, and a peer
manager is dark as well (so the client-side manager failover path is
exercised in the same run).

Measured, per mode:

* **re-home convergence** — crash until every orphaned server has adopted
  the standby supervisor (``rehome=True`` only; the seed never converges);
* **cold locate latency** — fresh paths, never located before the crash,
  resolved through the healed tree.

The shape claim: with re-homing, a cold locate lands in well under 1 s
even with the paper's 5 s full delay — the subtree was re-attached long
before the client asked.  Without it (seed), every probe is unreachable:
the holders are alive but heartbeating into the void.
"""

import pytest

from repro.cluster import ClientConfig, ScallaCluster, ScallaConfig
from repro.cluster.client import ScallaError

from reporting import ms, record, record_snapshot

N_PROBES = 4
REHOME_WINDOW = 30.0  # generous convergence poll budget (sim-seconds)


def run_failover(rehome: bool):
    cluster = ScallaCluster(
        8,
        config=ScallaConfig(
            seed=1401,
            fanout=4,  # 2 managers -> 2 supervisors -> 8 servers
            managers=2,
            heartbeat_interval=0.2,
            disconnect_timeout=0.7,
            drop_timeout=60.0,
            relogin_timeout=0.5,
            full_delay=5.0,  # the paper's default: makes slow paths obvious
            rehome=rehome,
            observability=True,
        ),
    )
    sup0 = cluster.topology.supervisors[0]
    children = cluster.topology.nodes[sup0].children
    probes = [f"/store/e14/p{i}.root" for i in range(N_PROBES)]
    for i, path in enumerate(probes):
        # Sole copy, under the doomed supervisor, never located pre-crash:
        # resolution after the crash is a genuinely cold path through
        # whatever tree is left.
        cluster.place(path, children[i % len(children)], size=64)
    cluster.settle(0.5)

    t_crash = cluster.sim.now
    cluster.node(sup0).crash()
    cluster.node(cluster.managers[0]).crash()

    # Poll for subtree convergence: every orphan logged into a standby.
    rehome_time = None
    while cluster.sim.now < t_crash + REHOME_WINDOW:
        cluster.run(until=cluster.sim.now + 0.05)
        parents = [cluster.node(c).current_parents for c in children]
        if all(p and sup0 not in p for p in parents):
            rehome_time = cluster.sim.now - t_crash
            break

    latencies = []
    failures = 0
    for path in probes:
        client = cluster.client(
            config=ClientConfig(locate_timeout=0.5, op_timeout=0.5)
        )
        try:
            res = cluster.run_process(client.open(path), limit=240)
        except ScallaError:
            failures += 1
        else:
            assert cluster.node(res.node).fs.exists(path)
            latencies.append(res.latency)
    return cluster, rehome_time, latencies, failures


def test_rehome_makes_cold_locate_fast(benchmark):
    def run():
        return {mode: run_failover(mode) for mode in (False, True)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    _, seed_rehome, seed_lat, seed_failures = results[False]
    cluster, rehome_time, latencies, failures = results[True]

    # Seed behaviour: the subtree never re-attaches and every sole-copy
    # probe is unreachable — alive holders, dark control plane.
    assert seed_rehome is None
    assert seed_failures == N_PROBES and not seed_lat

    # Tentpole behaviour: orphans adopt the standby within ~relogin_timeout
    # plus detection, and every cold locate succeeds at fast-path latency —
    # the acceptance bound is < 1 s against a 5 s full delay.
    assert rehome_time is not None and rehome_time < 3.0
    assert failures == 0
    assert max(latencies) < 1.0

    # The run exercised both tentpole mechanisms, visible in the metrics.
    snap = cluster.obs_snapshot(extra={"experiment": "E14"})
    d = snap["derived"]
    assert d["rehomes"] >= len(cluster.topology.nodes[cluster.topology.supervisors[0]].children)
    assert d["failovers"] >= 1  # dead peer manager forced client rotation
    record_snapshot("E14", snap)

    def fmt(rt):
        return ms(rt) if rt is not None else "never"

    record(
        "E14",
        "supervisor failover: cold locate after an unrecovered crash",
        ["mode", "subtree re-home", "probes ok", "cold locate (max)", "unreachable"],
        [
            (
                "seed (rehome=False)",
                fmt(seed_rehome),
                f"{len(seed_lat)}/{N_PROBES}",
                "-",
                seed_failures,
            ),
            (
                "rehome=True",
                fmt(rehome_time),
                f"{len(latencies)}/{N_PROBES}",
                ms(max(latencies)),
                failures,
            ),
        ],
        notes=(
            "Supervisor and one peer manager crash and never return; probe "
            "files have their sole copy in the orphaned subtree and were "
            "never located before the crash.  Re-homing converges in "
            "~relogin_timeout + detection, after which cold locates run at "
            "ordinary latency (acceptance: < 1 s vs the 5 s full delay). "
            "The seed strands the subtree permanently."
        ),
    )


def test_failover_is_invisible_to_warm_reads(benchmark):
    """A manager crash alone: clients rotate to the peer within one
    locate_timeout; no re-home is ever needed (supervisors are logged into
    both managers from the start)."""

    def run():
        cluster = ScallaCluster(
            8,
            config=ScallaConfig(
                seed=1402,
                fanout=4,
                managers=2,
                heartbeat_interval=0.2,
                disconnect_timeout=0.7,
                full_delay=5.0,
                observability=True,
            ),
        )
        cluster.populate(["/store/e14/warm.root"], copies=2, size=64)
        cluster.settle(0.5)
        cluster.run_process(cluster.client().open("/store/e14/warm.root"), limit=60)
        cluster.node(cluster.managers[0]).crash()
        cluster.run(until=cluster.sim.now + 0.5)
        client = cluster.client(
            config=ClientConfig(locate_timeout=0.5, op_timeout=0.5)
        )
        res = cluster.run_process(client.open("/store/e14/warm.root"), limit=60)
        return res.latency, client.stats.failovers, cluster

    latency, failovers, cluster = benchmark.pedantic(run, rounds=1, iterations=1)
    assert failovers >= 1
    # One dead-manager timeout, then the peer answers from cache.
    assert latency < 1.0
    snap = cluster.obs_snapshot(extra={"experiment": "E14-warm"})
    assert snap["derived"]["rehomes"] == 0  # multi-parent: nothing orphaned
