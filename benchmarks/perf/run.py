#!/usr/bin/env python
"""Run the tracked perf suite; optionally append to the BENCH trajectory.

Usage::

    python benchmarks/perf/run.py                      # measure + print
    python benchmarks/perf/run.py --record "label"     # append to BENCH_*.json
    python benchmarks/perf/run.py --json out.json      # machine-readable dump
    python benchmarks/perf/run.py --quick              # CI-sized workloads

The kernel, e2e, protocol, client and flood metrics land in ``BENCH_kernel.json``, the cache metrics
in ``BENCH_cache.json`` (repo root).  See ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent))  # benchmarks/: the perf package + reporting
sys.path.insert(0, str(_HERE.parent.parent / "src"))  # src/: repro

from perf import QUICK, calibrate  # noqa: E402
from perf import (  # noqa: E402
    perf_cache,
    perf_client,
    perf_e2e,
    perf_flood,
    perf_kernel,
    perf_protocol,
    perf_wan,
)
from reporting import record_bench  # noqa: E402


def run_all(*, quick: bool = False) -> dict:
    """Run every suite; returns ``{"kernel": {...}, "cache": {...}, ...}``."""
    scale = QUICK if quick else 1
    repeats = 2 if quick else 3
    return {
        "calibration": calibrate(n=500_000 if quick else 2_000_000),
        "kernel": {
            **perf_kernel.run_suite(scale=scale, repeats=repeats),
            **perf_e2e.run_suite(scale=scale, repeats=repeats),
            **perf_protocol.run_suite(scale=scale, repeats=repeats),
            **perf_client.run_suite(scale=scale, repeats=repeats),
            **perf_flood.run_suite(scale=scale, repeats=repeats),
        },
        "cache": {
            **perf_cache.run_suite(scale=scale, repeats=repeats),
            **perf_wan.run_suite(scale=scale, repeats=repeats),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/perf/run.py",
        description="Kernel/cache/e2e perf suite for the BENCH_*.json trajectory",
    )
    parser.add_argument("--record", metavar="LABEL", help="append entries to BENCH_*.json")
    parser.add_argument("--json", metavar="PATH", help="write raw results to PATH")
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument("--notes", default="", help="free-form note stored with --record")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    for suite in ("kernel", "cache"):
        for metric, value in sorted(results[suite].items()):
            print(f"{suite:>6}  {metric:<28} {value:>14,.1f}")
    print(f"{'host':>6}  {'calibration':<28} {results['calibration']:>14,.1f}")

    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
    if args.record:
        for suite in ("kernel", "cache"):
            record_bench(
                suite,
                args.record,
                results[suite],
                calibration=results["calibration"],
                notes=args.notes,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
