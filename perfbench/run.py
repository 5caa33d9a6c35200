"""The repository benchmark: three Scalla workloads behind one command.

    python3 perfbench/run.py --workload hot-jobs --seed 1 --seconds 12 --trace 0

runs one workload against the ``ScallaCluster`` built from ``src/`` of the
checkout it sits in, checks every op's outcome, prints a readable report
and, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics, and writes the traced run's layer report to
``perfbench/out/trace-<workload>-seed<seed>.json``.  Exit status is 0 only
when every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    ``repro`` package really comes from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="host seconds to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from scallabench.runner import END_TO_END, PER_LAYER, run_traced, run_untraced
    from scallabench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    if args.trace:
        outcome = run_traced(wl, args.seed, out_dir=HERE / "out")
        spec = PER_LAYER
    else:
        outcome = run_untraced(wl, args.seed, args.seconds)
        spec = END_TO_END
    if set(outcome.metrics) != {m.name for m in spec}:
        raise RuntimeError("reported metrics do not match the declared set")

    print(f"{wl.name} seed={args.seed} trace={args.trace}")
    for m in spec:
        print(f"  {m.name:<30} {outcome.metrics[m.name]:>16.6g} {m.unit:<6} [{m.kind}]")
    for key, value in outcome.notes.items():
        print(f"  note {key}: {value}")
    for v in outcome.violations:
        print(f"  CORRECTNESS: {v}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m.name: {"value": outcome.metrics[m.name], "unit": m.unit} for m in spec
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
