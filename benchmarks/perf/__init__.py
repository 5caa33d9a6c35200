"""The tracked performance-benchmark suite.

Unlike the ``bench_e*`` experiment benches (which reproduce the paper's
*simulated-time* claims), this package measures the reproduction's own
*wall-clock* hot paths — the discrete-event kernel, the name-cache fetch
path, end-to-end E1 resolution, and building and sizing wire messages —
and appends the numbers to the ``BENCH_kernel.json`` /
``BENCH_cache.json`` trajectory files at the repo root, so every PR can
see what it did to throughput.

Conventions (``scripts/check_perf.py`` relies on them):

* metrics ending in ``_per_sec`` are wall-clock throughput — higher is
  better, machine-dependent, compared after normalizing by the entry's
  ``calibration`` rate;
* metrics ending in ``_us`` are *simulated-time* latencies — lower is
  better, machine-independent, compared raw;
* every run stamps a ``calibration`` rate: a fixed pure-Python spin loop
  whose speed tracks the host's single-thread Python performance, so a
  baseline recorded on one machine can gate a run on another.

Run the whole suite with ``python benchmarks/perf/run.py`` (see
``docs/performance.md``).
"""

from __future__ import annotations

import time

__all__ = ["best_rate", "calibrate", "QUICK"]

#: Scale factor applied to workload sizes in --quick mode (CI smoke).
QUICK = 4


def best_rate(fn, *, repeats: int = 3) -> float:
    """Best-of-*repeats* throughput of *fn* in operations per second.

    *fn* runs the workload from scratch and returns the number of
    operations it performed.  Best-of (not mean) is the standard
    microbenchmark estimator: the minimum-interference run is the closest
    to the code's true cost, and it is far more stable under CI noise.
    """
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        if elapsed > 0:
            best = max(best, ops / elapsed)
    return best


def calibrate(*, n: int = 2_000_000) -> float:
    """Host-speed reference: iterations/sec of a fixed arithmetic loop.

    Used by ``scripts/check_perf.py`` to compare throughput entries
    recorded on different machines: ``metric / calibration`` is a rough
    machine-independent cost ratio.
    """

    def spin() -> int:
        acc = 0
        for i in range(n):
            acc += i & 7
        return n

    return best_rate(spin, repeats=3)
