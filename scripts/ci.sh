#!/usr/bin/env bash
# The tier-1 checks of .github/workflows/tier1.yml, runnable from any checkout:
#
#     scripts/ci.sh
#
# Runs the tests, every suite with its figures, the two scaling scripts, a rerun
# and a one-core run that must write the same reports and verdicts, and each
# benchmark workload, all into a temporary directory that is removed at exit.
# The suite runs turn a numpy RuntimeWarning into an error, as the tests'
# filterwarnings does, so a suite that makes a NaN through one fails.  Fails if
# a step changed a tracked file.  Expects the package's dependencies
# (pip install -e ".[test]").
set -euo pipefail

cd "$(dirname "$0")/.."
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
repo="$PWD"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
tracked_before="$(git diff --binary | sha256sum)"

echo "== tier-1 tests"
python -m pytest -q --continue-on-collection-errors --durations=15

echo "== every suite with its figures"
PYTHONWARNINGS=error::RuntimeWarning python -m thinshell.cli all --plot --out "$out/reports"
for svg in thinshell/thinshell_loglog.svg berry_esseen/kolmogorov_vs_n.svg \
           spectral/eigenfunction_square.svg spectral/eigenfunction_disc.svg; do
  test -s "$out/reports/$svg" || { echo "missing $svg"; exit 1; }
done

suites="identities thinshell clt berry_esseen transport spectral"

# the same report.csv, and the same assertion records in report.json (which
# also holds the timestamp and timings, so only its assertions are compared)
same_reports() {
  cmp "$1/report.csv" "$2/report.csv"
  python - "$1/report.json" "$2/report.json" <<'PY' || { echo "$1 and $2 differ in their assertions"; exit 1; }
import json, sys
first, second = (json.load(open(path))["assertions"] for path in sys.argv[1:])
sys.exit(first != second)
PY
}

echo "== the scaling scripts run, writing their relative reports/ paths under the temporary directory"
for script in thinshell_scaling smoothing_scaling; do
  (cd "$out" && PYTHONWARNINGS=error::RuntimeWarning python "$repo/scripts/$script.py")
done

echo "== a rerun writes the same reports"
PYTHONWARNINGS=error::RuntimeWarning python -m thinshell.cli all --out "$out/rerun"
for suite in $suites; do
  same_reports "$out/reports/$suite" "$out/rerun/$suite"
done

echo "== one drawing thread writes the same reports"
PYTHONWARNINGS=error::RuntimeWarning taskset -c 0 python -m thinshell.cli all --out "$out/one_core"
for suite in $suites; do
  same_reports "$out/reports/$suite" "$out/one_core/$suite"
done

echo "== each benchmark workload runs with every operation correct"
for workload in acceptance families lattice; do
  python3 perfbench/run.py --workload "$workload" --seed 20250810 --seconds 1 \
    | tee "$out/bench_$workload.txt"
  tail -n 1 "$out/bench_$workload.txt" | grep -q '"correct": true' \
    || { echo "$workload: not correct"; exit 1; }
done

echo "== no step changed a tracked file"
if [ "$(git diff --binary | sha256sum)" != "$tracked_before" ]; then
  git diff --stat
  echo "a step changed a tracked file"
  exit 1
fi
