#!/usr/bin/env bash
# Tier-1 verify: configure, build every target (libs, tests, benches,
# examples), and run the full ctest suite. This is the exact command sequence
# ROADMAP.md pins; CI and pre-merge checks should call this script.
#
# Usage:
#   scripts/check.sh            # plain build + tests
#   scripts/check.sh --asan     # additionally run the suite under ASan/UBSan
#   scripts/check.sh --tsan     # additionally run the concurrency labels under TSan
#   scripts/check.sh --chaos    # extended seeded fault-injection sweep
#                               # (MZ_CHAOS_SEEDS widens the per-cell seed
#                               # range; default 25 → 200 matrix runs)
#   scripts/check.sh --bench-diff   # also diff the two newest BENCH_*.json
#                                   # (advisory — single-core CI wall times
#                                   # are too noisy to gate on)
#   scripts/check.sh --asan --tsan      # mode flags combine; each runs once
#   MOZART_CHECK_JOBS=4 scripts/check.sh   # override build/test parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${MOZART_CHECK_JOBS:-$(nproc)}"

asan=0 tsan=0 chaos=0 bench_diff=0
for arg in "$@"; do
  case "$arg" in
    --asan) asan=1 ;;
    --tsan) tsan=1 ;;
    --chaos) chaos=1 ;;
    --bench-diff) bench_diff=1 ;;
    *)
      echo "check.sh: unknown option '$arg' (expected --asan, --tsan, --chaos, --bench-diff)" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: cmake -B build -S . && cmake --build build -j && ctest =="
# Pin the options the gate depends on so a stale CMake cache (e.g. a manual
# -DMZ_SANITIZE=address configure of build/) cannot change what "plain" means.
cmake -B build -S . -DMZ_SANITIZE=OFF -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

if (( asan )); then
  echo "== sanitize: -DMZ_SANITIZE=address (ASan + UBSan) =="
  cmake -B build-asan -S . -DMZ_SANITIZE=address
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest --output-on-failure -j "$jobs")
fi

if (( bench_diff )); then
  # Compare the two most recent committed bench snapshots (by PR number).
  # Advisory: prints REGRESSION markers but never fails the check.
  mapfile -t snaps < <(ls BENCH_PR*.json 2>/dev/null | sort -t R -k 2 -n | tail -2)
  if [[ ${#snaps[@]} -lt 2 ]]; then
    echo "== bench-diff: need two BENCH_PR*.json snapshots, found ${#snaps[@]} — skipping =="
  else
    echo "== bench-diff (advisory): ${snaps[0]} vs ${snaps[1]} =="
    python3 scripts/bench_diff.py "${snaps[0]}" "${snaps[1]}" || true
  fi
fi

if (( chaos )); then
  # Extended chaos sweep: the `chaos` label is the seeded fault-injection
  # battery (tests/core/chaos_test.cc). Plain ctest already runs it at 13
  # seeds per knob cell; this widens the sweep. Deterministic per seed: a
  # failure line names the (knobs, seed) cell to reproduce it.
  seeds="${MZ_CHAOS_SEEDS:-25}"
  echo "== chaos: fault-injection sweep, ${seeds} seeds per knob cell =="
  (cd build && MZ_CHAOS_SEEDS="$seeds" ctest --output-on-failure -L chaos)
fi

if (( tsan )); then
  # Concurrency-focused subset: the serving layer (sessions, plan cache,
  # admission, batching — the `serving` label groups its test battery), the
  # runtime, and the pool. The full suite under TSan's ~10x slowdown is not
  # worth the wall time; these labels cover every lock. `matrix` adds the
  # 4-thread stencil and carried row-band tests; `dataframe` adds the
  # DfThreadSweep hand-off of carried Column slices between pool threads;
  # `vecmath` adds the concurrent first Erf call (the once-only AVX-512 path
  # self-check). lazy_heap_test is excluded: the lazy heap evaluates inside a SIGSEGV
  # handler by design (§4.1 protected memory), which trips TSan's
  # signal-safety checker — a design property, not a data race. The
  # batch-collector and deadline suites open batch windows from real arrival
  # gaps, so they run five more times to surface a timing flake.
  echo "== sanitize: -DMZ_SANITIZE=thread (TSan, labels core|common|serving|matrix|dataframe|vecmath) =="
  cmake -B build-tsan -S . -DMZ_SANITIZE=thread
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && ctest --output-on-failure -j "$jobs" -L "core|common|serving|matrix|dataframe|vecmath" -E lazy_heap)
  (cd build-tsan && ctest --output-on-failure -R "batch_collector_test|deadline_test" --repeat until-fail:5)
fi
