#!/usr/bin/env python
"""Gate on the perf trajectory: fail on a >25% regression.

Compares a fresh run of the ``benchmarks/perf`` suite (or a results file
produced by ``benchmarks/perf/run.py --json``) against the *last committed
entry* of ``BENCH_kernel.json`` / ``BENCH_cache.json``.

Two metric families, two comparison rules (see docs/performance.md):

* ``*_per_sec`` — wall-clock throughput.  Machine-dependent, so the
  baseline is rescaled by the ratio of calibration rates (the fixed
  pure-Python spin loop measured alongside every entry) before the
  threshold is applied.
* ``*_us`` — simulated-time latency.  Deterministic output of the event
  kernel, identical on any machine; compared raw, and held to a much
  tighter tolerance because only a behavior change can move it.

A baseline metric the current results lack is a failure too: a renamed
or dropped scenario must not pass unnoticed.

Exit 0 when every metric is within tolerance, 1 on any regression or
missing metric, 2 on usage errors (no baseline to compare against,
unreadable results file).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "src"))

from reporting import load_bench  # noqa: E402

#: Wall-throughput metrics may drift this much below the (calibration-
#: rescaled) baseline before the gate fails.
DEFAULT_THRESHOLD = 0.25

#: Simulated-time latency is deterministic: anything beyond float noise
#: means the kernel's behavior changed, not the machine.
SIMTIME_TOLERANCE = 0.001

SUITES = ("kernel", "cache")


def _load_results(path: str | None, *, quick: bool) -> dict:
    if path is not None:
        try:
            return json.loads(pathlib.Path(path).read_text())
        except (OSError, ValueError) as err:
            print(f"check_perf: cannot read results file {path}: {err}", file=sys.stderr)
            raise SystemExit(2)
    # No pre-measured file: run the suite ourselves.
    sys.path.insert(0, str(REPO / "benchmarks" / "perf"))
    from run import run_all

    return run_all(quick=quick)


def compare_suite(
    suite: str,
    baseline: dict,
    current_metrics: dict[str, float],
    current_calibration: float,
    threshold: float,
) -> list[str]:
    """Return a list of failure descriptions (empty = suite passes)."""
    failures: list[str] = []
    base_cal = baseline.get("calibration") or current_calibration
    scale = current_calibration / base_cal
    label = baseline.get("label", "?")
    for metric, base_val in sorted(baseline.get("metrics", {}).items()):
        cur = current_metrics.get(metric)
        if cur is None:
            print(f"  {suite:>6}  {metric:<28} {'missing':>14}  MISSING")
            failures.append(
                f"{suite}.{metric}: missing from the current results "
                f"(baseline «{label}» has it)"
            )
            continue
        if base_val <= 0:
            continue
        if metric.endswith("_per_sec"):
            floor = base_val * scale * (1.0 - threshold)
            ratio = cur / (base_val * scale)
            verdict = "ok" if cur >= floor else "REGRESSION"
            print(
                f"  {suite:>6}  {metric:<28} {cur:>14,.1f}  "
                f"baseline*cal {base_val * scale:>14,.1f}  x{ratio:.2f}  {verdict}"
            )
            if cur < floor:
                failures.append(
                    f"{suite}.{metric}: {cur:,.1f}/s is {(1 - ratio) * 100:.1f}% below "
                    f"baseline «{label}» ({base_val:,.1f}/s, rescaled x{scale:.2f}); "
                    f"threshold {threshold * 100:.0f}%"
                )
        elif metric.endswith("_us"):
            ceiling = base_val * (1.0 + SIMTIME_TOLERANCE)
            verdict = "ok" if cur <= ceiling else "REGRESSION"
            print(
                f"  {suite:>6}  {metric:<28} {cur:>14,.1f}  "
                f"baseline {base_val:>14,.1f}  {verdict}"
            )
            if cur > ceiling:
                failures.append(
                    f"{suite}.{metric}: simulated latency {cur:,.1f}us exceeds "
                    f"baseline «{label}» {base_val:,.1f}us — deterministic metric, "
                    "so the kernel's behavior changed"
                )
        # Other metrics (raw counts, etc.) are informational only.
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python scripts/check_perf.py",
        description="Fail when the perf suite regresses >25% vs the committed BENCH baseline",
    )
    parser.add_argument(
        "results",
        nargs="?",
        help="results JSON from `benchmarks/perf/run.py --json` (measured fresh when omitted)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional throughput drop (default %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="measure with CI-sized workloads (only when no results file is given)",
    )
    args = parser.parse_args(argv)

    results = _load_results(args.results, quick=args.quick)
    current_cal = results.get("calibration")
    if not current_cal:
        print("check_perf: results carry no calibration rate", file=sys.stderr)
        return 2

    failures: list[str] = []
    compared = 0
    for suite in SUITES:
        doc = load_bench(suite)
        if not doc["entries"]:
            print(f"check_perf: no committed baseline in BENCH_{suite}.json", file=sys.stderr)
            return 2
        baseline = doc["entries"][-1]
        print(f"== {suite}: vs baseline «{baseline.get('label', '?')}»")
        failures += compare_suite(
            suite, baseline, results.get(suite, {}), current_cal, args.threshold
        )
        compared += 1

    if failures:
        print(f"\ncheck_perf: {len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\ncheck_perf: {compared} suite(s) within threshold of the committed baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
