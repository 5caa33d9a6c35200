"""Kernel microbenchmarks: raw event-dispatch throughput.

Three scenarios cover the kernel's distinct hot paths, sized so the
per-event kernel overhead (allocation, heap traffic, callback dispatch)
dominates over the trivial process bodies:

* ``spawn`` — per-operation process creation, the pattern of client
  operations (``ScallaCluster.run_process``, perfbench's open-loop
  arrivals): thousands of short-lived processes, each one bootstrap +
  one timeout + one completion event, each one heap entry.
* ``timeout`` — long-running processes looping on ``sim.sleep`` (the
  kernel-pooled timeout; plain ``sim.timeout`` on kernels that predate
  pooling).  Pure heap + timeout-object traffic.
* ``store`` — producer/consumer handoff through ``sim.sync.Store``, the
  processes' mailbox: per-item Event allocation and same-time handoff.

The headline ``events_per_sec`` aggregates all three (total events over
total wall time), weighting each path by the events it generates.
"""

from __future__ import annotations

import time

from repro.sim.kernel import Simulator
from repro.sim.sync import Store


def _sleeper(sim):
    """``yield sim.sleep(...)`` where available (pooled), else timeout."""
    return getattr(sim, "sleep", None) or sim.timeout


def run_spawn(n_procs: int = 30_000, batch: int = 200) -> tuple[int, float]:
    """Spawn *n_procs* one-shot processes in waves; return (events, elapsed).

    A driver process launches *batch* processes per simulated second, the
    way an open-loop workload starts one process per client operation: a
    few hundred live processes at any instant, not all of them at once
    (which would measure the garbage collector, not the kernel).
    """
    sim = Simulator()
    sleep = _sleeper(sim)

    def one_shot(d):
        yield sleep(d)

    def driver():
        for start in range(0, n_procs, batch):
            for i in range(start, start + batch):
                sim.process(one_shot(float(i % 7)))
            yield sleep(8.0)  # past the longest one_shot delay

    t0 = time.perf_counter()
    sim.process(driver())
    sim.run()
    return sim.events_processed, time.perf_counter() - t0


def run_timeout(n_procs: int = 100, n_waits: int = 600) -> tuple[int, float]:
    """Looping sleepers with interleaved wakeup times; (events, elapsed)."""
    sim = Simulator()
    sleep = _sleeper(sim)

    def looper(step):
        for _ in range(n_waits):
            yield sleep(step)

    t0 = time.perf_counter()
    for i in range(n_procs):
        sim.process(looper(1.0 + (i % 13) * 0.25))
    sim.run()
    return sim.events_processed, time.perf_counter() - t0


def run_store(n_items: int = 40_000) -> tuple[int, float]:
    """Producer/consumer handoff through a Store; (events, elapsed)."""
    sim = Simulator()
    store = Store(sim)
    sleep = _sleeper(sim)

    def producer():
        for i in range(n_items):
            store.put(i)
            yield sleep(0.001)

    def consumer():
        for _ in range(n_items):
            yield store.get()

    t0 = time.perf_counter()
    sim.process(consumer())
    sim.process(producer())
    sim.run()
    return sim.events_processed, time.perf_counter() - t0


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    """Run every scenario; return the kernel metric dict.

    *scale* divides workload sizes (CI smoke uses a larger divisor); the
    rates are size-independent so entries stay comparable.
    """
    scenarios = {
        "spawn": lambda: run_spawn(30_000 // scale),
        "timeout": lambda: run_timeout(100, 600 // scale),
        "store": lambda: run_store(40_000 // scale),
    }
    metrics: dict[str, float] = {}
    agg_events = 0
    agg_elapsed = 0.0
    for name, fn in scenarios.items():
        best_rate = 0.0
        best = None
        for _ in range(repeats):
            events, elapsed = fn()
            if elapsed > 0 and events / elapsed > best_rate:
                best_rate = events / elapsed
                best = (events, elapsed)
        assert best is not None
        metrics[f"{name}_events_per_sec"] = round(best_rate, 1)
        agg_events += best[0]
        agg_elapsed += best[1]
    metrics["events_per_sec"] = round(agg_events / agg_elapsed, 1)
    return metrics
