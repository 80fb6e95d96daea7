#!/usr/bin/env bash
# Smoke run of the benchmark: builds perfbench/ and runs each workload traced
# for one second, failing unless every run checks its results as correct.
# perfbench/trace.cc takes member pointers into EvalStats::Snapshot, so this
# is what catches a stats.h change that breaks the benchmark build.
#
# Usage:
#   scripts/perfbench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
for w in blackscholes shallow_water pandas serving; do
  echo "== perfbench smoke: $w =="
  last="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)"
  echo "$last"
  python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' \
    "$last"
done
