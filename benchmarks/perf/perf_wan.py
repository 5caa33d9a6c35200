"""E6-wan: cold locate latency over an 80 ms WAN site link.

The regression this tracks: at seed, query responses crossing an 80 ms
one-way link always landed after the 133 ms fast-response window, so every
cold locate of an *existing* remote file silently degraded to the full 5 s
conservative delay (5.13 s measured).  Late-response reconciliation
(EXPERIMENTS.md finding #4) brings that to ~160 ms — about one WAN query
round trip.

The metric is *simulated* time, deterministic and machine-independent:
any movement means the protocol's behaviour changed, which is exactly what
the perf-smoke gate should catch (SIMTIME_TOLERANCE in check_perf).

* ``wan_cold_locate_us`` — default config (late-response reconciliation
  on): the parked client is released when the straggling response lands.
"""

from __future__ import annotations

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.ids import cmsd_host, xrootd_host
from repro.sim.latency import Uniform


def _cold_wan_locate_us(*, settle: float) -> float:
    cluster = ScallaCluster(4, config=ScallaConfig(seed=74))
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

    return cluster.run_process(probe(), limit=120) * 1e6


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    # Simulated-time metrics: one run is exact, scale/repeats are accepted
    # only for signature symmetry with the wall-clock suites.
    del scale, repeats
    return {"wan_cold_locate_us": round(_cold_wan_locate_us(settle=0.5), 3)}
