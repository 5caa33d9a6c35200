#!/usr/bin/env bash
# Local pre-push check — the same gates CI runs, in the same order.
#
#   scripts/check.sh           # ruff (if installed) + scalla-lint +
#                              # tier-1 tests + determinism double-run +
#                              # sanitized chaos soak
#   scripts/check.sh --bench   # also run scripts/smoke_bench.sh (the
#                              # smoke benches, their snapshot gate and
#                              # the drift gate on the committed records)
#                              # and gate the perf suite against the
#                              # committed BENCH_*.json baseline
#
# Ruff is optional locally (CI always has it): when it is not importable
# the lint step is skipped with a warning instead of failing, so the
# script works in minimal containers.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_bench=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

ruff_cmd=""
if command -v ruff >/dev/null 2>&1; then
  ruff_cmd="ruff"
elif python -c "import ruff" >/dev/null 2>&1; then
  ruff_cmd="python -m ruff"
fi
if [ -n "$ruff_cmd" ]; then
  echo "== ruff check"
  $ruff_cmd check src tests benchmarks scripts
  echo "== ruff format --check (obs + scripts)"
  $ruff_cmd format --check src/repro/obs scripts
else
  echo "== ruff not installed; skipping lint (CI will run it)"
fi

echo "== scalla-lint (repo rules)"
python -m repro.analysis.lint src tests benchmarks

echo "== tier-1 tests"
python -m pytest -x -q

echo "== determinism (same-seed double run, SimSan on run 2)"
python -m repro.analysis.determinism --sanitize

echo "== chaos soak (sanitized)"
SCALLA_SANITIZE=1 python -m pytest tests/integration/test_chaos.py -q

if [ "$run_bench" -eq 1 ]; then
  bash scripts/smoke_bench.sh
  echo "== perf gate (quick suite vs committed BENCH baseline)"
  python scripts/check_perf.py --quick
fi

echo "== all checks passed"
