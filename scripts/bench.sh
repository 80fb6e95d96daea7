#!/usr/bin/env bash
# Runs the figure/table benches with machine-readable output enabled
# (MOZART_BENCH_JSON, bench/bench_common.h) and assembles the per-bench
# JSONL streams into one JSON document at the repo root. That file seeds the
# perf trajectory: commit BENCH_PR<k>.json so future PRs can regress-check
# against it.
#
# Usage:
#   scripts/bench.sh                 # full scale → BENCH_PR10.json
#   MOZART_BENCH_TAG=PR11 scripts/bench.sh
#   MOZART_BENCH_SCALE=0.01 scripts/bench.sh        # quick pass
#   MOZART_BENCH_LIST="table4_pipelining" scripts/bench.sh
#   MOZART_BENCH_REPEATS=3 scripts/bench.sh
#       # also writes BENCH_<tag>.rep2.json / .rep3.json; feed all three to
#       # scripts/bench_diff.py OLD.json BENCH_<tag>*.json for a per-metric
#       # median-of-3 comparison (wall times on shared CI are noisy)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${MOZART_CHECK_JOBS:-$(nproc)}"
tag="${MOZART_BENCH_TAG:-PR10}"
scale="${MOZART_BENCH_SCALE:-1}"
repeats="${MOZART_BENCH_REPEATS:-1}"
# The benches that currently emit Metric() lines. Binaries without metrics
# still run fine under MOZART_BENCH_JSON; they just contribute nothing.
benches="${MOZART_BENCH_LIST:-table4_pipelining fig5_overheads fig6_batch_size fig7_intensity stream_throughput concurrency loadgen_serving df_kernels}"

cmake -B build -S . -DMZ_SANITIZE=OFF -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build -j "$jobs" --target $benches >/dev/null

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for rep in $(seq 1 "$repeats"); do
  suffix=""
  [ "$rep" -gt 1 ] && suffix=".rep${rep}"
  out="BENCH_${tag}${suffix}.json"
  repdir="$tmpdir/rep$rep"
  mkdir -p "$repdir"

  for b in $benches; do
    echo "== bench: $b (scale=$scale, rep $rep/$repeats) =="
    MOZART_BENCH_SCALE="$scale" MOZART_BENCH_JSON="$repdir/$b.jsonl" "./build/bench/$b"
  done

  # Assemble: one JSON object with metadata plus the metric lines as an array.
  {
    printf '{\n'
    printf '  "schema": "mozart-bench-v1",\n'
    printf '  "tag": "%s",\n' "$tag"
    printf '  "scale": %s,\n' "$scale"
    printf '  "threads": %s,\n' "$(nproc)"
    printf '  "metrics": [\n'
    # cat with no files (no selected bench emitted metrics) is fine: awk then
    # sees empty input and the array stays empty rather than killing the
    # assembly under set -e.
    find "$repdir" -name '*.jsonl' -print0 | xargs -0 --no-run-if-empty cat |
      awk 'NR > 1 { printf ",\n" } { printf "    %s", $0 } END { if (NR > 0) printf "\n" }'
    printf '  ]\n'
    printf '}\n'
  } > "$out"

  echo "wrote $out ($(grep -c '"metric"' "$out" || true) metrics)"
done
