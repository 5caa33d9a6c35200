#!/usr/bin/env bash
# The smoke benches and the records they must reproduce, in one list: CI's
# smoke-bench job and `scripts/check.sh --bench` both run this script.
#
#   scripts/smoke_bench.sh   # run the E1/E6/E7/E11/E13/E14 benches,
#                            # validate their metric snapshots, and fail if
#                            # a regenerated record differs from the
#                            # committed one
#
# The snapshots and the E6, E7, E11 restart and E13 records hold simulated
# output only, so regenerating them must reproduce the committed files byte
# for byte; a change that moves a value commits the regenerated file.  E7
# runs with observability off, so its exact "n queries + h responses"
# assertion exercises the silent-leaf path.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== smoke benches (E1, E6, E7, E11, E13, E14)"
python -m pytest benchmarks/bench_e1_redirection.py \
                 benchmarks/bench_e6_fastresponse.py \
                 benchmarks/bench_e7_protocol.py \
                 benchmarks/bench_e11_registration.py \
                 benchmarks/bench_e13_qserv.py \
                 benchmarks/bench_e14_failover.py \
                 -p no:cacheprovider -q

echo "== snapshot gate"
python scripts/check_snapshots.py \
  benchmarks/results/e1.metrics.json \
  benchmarks/results/e6.metrics.json \
  benchmarks/results/e14.metrics.json

echo "== snapshot drift gate (regenerated records match the committed ones)"
git diff --exit-code -- benchmarks/results/*.metrics.json \
                        benchmarks/results/e6*.md \
                        benchmarks/results/e7*.md \
                        benchmarks/results/e11-restart.md \
                        benchmarks/results/e13*.md
