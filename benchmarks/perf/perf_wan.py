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

from repro.workloads.wan import cold_locate, wan_federation


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    # Simulated-time metrics: one run is exact, scale/repeats are accepted
    # only for signature symmetry with the wall-clock suites.
    del scale, repeats
    elapsed, _ = cold_locate(wan_federation(settle=0.5))
    return {"wan_cold_locate_us": round(elapsed * 1e6, 3)}
