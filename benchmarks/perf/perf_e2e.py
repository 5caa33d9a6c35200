"""End-to-end resolution: whole-stack locate throughput and latency.

Drives the full cluster — client, xrootd redirectors, cmsd tree, name
cache, fast response queue, simulated network — through repeated warm
locates on a depth-2 tree (16 servers, fanout 4), the E1 configuration,
and through cold locates that each flood a 256-server tree.

Three metrics:

* ``locate_per_sec`` — wall-clock resolutions per second, the
  whole-stack hot-path throughput (kernel + cache + protocol);
* ``warm_locate_us`` — *simulated* warm locate latency in microseconds.
  This is deterministic and machine-independent: any change here means
  the protocol behaviour changed, not just its speed;
* ``cold_locate_per_sec`` — wall-clock resolutions per second of paths
  never located before on a 256-server tree (fanout 64): every locate is
  a full flood of 256 ``QueryFile``s of which one is answered, so this
  guards the silent-leaf path (request-rarely-respond, §III-B).
"""

from __future__ import annotations

import time

from repro.cluster import ScallaCluster, ScallaConfig


def _build(seed: int = 51) -> tuple[ScallaCluster, list[str]]:
    cluster = ScallaCluster(16, config=ScallaConfig(seed=seed, fanout=4))
    paths = [f"/store/perf/f{i:03d}.root" for i in range(32)]
    cluster.populate(paths)
    cluster.settle()
    return cluster, paths


def _cold_rate(n_locates: int, seed: int = 52) -> float:
    """Locates per second of *n_locates* never-seen paths, one holder each."""
    cluster = ScallaCluster(256, config=ScallaConfig(seed=seed, fanout=64))
    paths = [f"/store/cold/f{i:04d}.root" for i in range(n_locates)]
    cluster.populate(paths)
    cluster.settle()
    client = cluster.client()
    w0 = time.perf_counter()
    for p in paths:
        cluster.run_process(client.locate(p))
    elapsed = time.perf_counter() - w0
    return n_locates / elapsed if elapsed > 0 else 0.0


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    n_locates = 600 // scale
    best = 0.0
    warm_us = 0.0
    for _ in range(repeats):
        cluster, paths = _build()
        client = cluster.client()
        # Warm the cache once so the measured loop is the cached fetch path.
        for p in paths:
            cluster.run_process(client.locate(p))
        t0 = cluster.sim.now
        cluster.run_process(client.locate(paths[0]))
        warm_us = (cluster.sim.now - t0) * 1e6
        w0 = time.perf_counter()
        for i in range(n_locates):
            cluster.run_process(client.locate(paths[i % len(paths)]))
        elapsed = time.perf_counter() - w0
        if elapsed > 0:
            best = max(best, n_locates / elapsed)
    cold = max(_cold_rate(400 // scale) for _ in range(repeats))
    return {
        "locate_per_sec": round(best, 1),
        "warm_locate_us": round(warm_us, 3),
        "cold_locate_per_sec": round(cold, 1),
    }
