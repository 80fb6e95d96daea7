#!/usr/bin/env python3
"""Checks that scripts/bench_diff.py compares only comparable BENCH files.

Usage: bench_diff_test.py PATH/TO/bench_diff.py

Writes tiny BENCH documents to a temporary directory and asserts the exit
codes: matching scale, threads and host fingerprint compare (exit 0); a
differing "threads", "scale" or fingerprint host key in any NEW file is
refused (non-zero, both values named); a differing vecmath path, SIMD loop
build or transparent-huge-page mode, or a key only one file has, compares
with a note; an OLD file without a fingerprint compares with a warning.
"""
import json
import os
import subprocess
import sys
import tempfile


FINGERPRINT = {"l2_bytes": 2097152, "compiler": "GNU-12.2.0",
               "build_type": "RelWithDebInfo", "transcendental_path": "avx512",
               "log1p_path": "avx512", "simd_loops": "avx512", "hugepages": "madvise"}


def write_bench(directory, name, threads, scale, seconds, fingerprint=FINGERPRINT):
    path = os.path.join(directory, name)
    doc = {
        "schema": "mozart-bench-v1",
        "tag": name,
        "scale": scale,
        "threads": threads,
        "metrics": [{"bench": "b", "workload": "w", "config": "c", "metric": "seconds",
                     "value": seconds, "scale": scale}],
    }
    if fingerprint is not None:
        doc["fingerprint"] = fingerprint
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def run(script, *paths):
    return subprocess.run([sys.executable, script, *paths], capture_output=True, text=True)


def main():
    script = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as d:
        old = write_bench(d, "old.json", threads=1, scale=1, seconds=1.0)
        same = write_bench(d, "same.json", threads=1, scale=1, seconds=1.1)
        threads4 = write_bench(d, "threads4.json", threads=4, scale=1, seconds=1.0)
        scale01 = write_bench(d, "scale01.json", threads=1, scale=0.1, seconds=0.1)

        r = run(script, old, same)
        if r.returncode != 0:
            failures.append(f"matching headers exited {r.returncode}: {r.stderr.strip()}")
        elif "warning" in r.stderr:
            failures.append(f"matching fingerprints drew a warning: {r.stderr.strip()}")

        r = run(script, old, threads4)
        if r.returncode == 0:
            failures.append("differing threads exited 0")
        elif "threads" not in r.stderr or "has 1" not in r.stderr or "has 4" not in r.stderr:
            failures.append(f"threads refusal does not name both values: {r.stderr.strip()}")

        r = run(script, old, scale01)
        if r.returncode == 0:
            failures.append("differing scale exited 0")
        elif "scale" not in r.stderr or "has 1" not in r.stderr or "has 0.1" not in r.stderr:
            failures.append(f"scale refusal does not name both values: {r.stderr.strip()}")

        # Any one mismatched repeat among several NEW files is enough.
        r = run(script, old, same, threads4)
        if r.returncode == 0:
            failures.append("a mismatched second NEW file exited 0")

        clang = write_bench(d, "clang.json", threads=1, scale=1, seconds=2.0,
                            fingerprint=dict(FINGERPRINT, compiler="Clang-16.0.6"))
        r = run(script, old, clang)
        if r.returncode == 0:
            failures.append("differing fingerprint compiler exited 0")
        elif ("compiler" not in r.stderr or "GNU-12.2.0" not in r.stderr
              or "Clang-16.0.6" not in r.stderr):
            failures.append(f"fingerprint refusal does not name both values: {r.stderr.strip()}")

        # A change under test may move a kernel between its scalar and
        # vector paths; that is noted, not refused.
        scalar = write_bench(d, "scalar.json", threads=1, scale=1, seconds=2.0,
                             fingerprint=dict(FINGERPRINT, transcendental_path="scalar"))
        r = run(script, old, scalar)
        if r.returncode != 0:
            failures.append(f"differing vecmath path exited {r.returncode}: {r.stderr.strip()}")
        elif ("transcendental_path" not in r.stderr or '"avx512"' not in r.stderr
              or '"scalar"' not in r.stderr):
            failures.append(f"differing vecmath path is not noted: {r.stderr.strip()}")

        # The element-wise loop build and the huge-page mode change timings
        # but may differ between a change and its parent's host; noted only.
        for key, value in (("simd_loops", "baseline"), ("hugepages", "never")):
            other = write_bench(d, f"{key}.json", threads=1, scale=1, seconds=2.0,
                                fingerprint=dict(FINGERPRINT, **{key: value}))
            r = run(script, old, other)
            if r.returncode != 0:
                failures.append(f"differing {key} exited {r.returncode}: {r.stderr.strip()}")
            elif (key not in r.stderr or f'"{FINGERPRINT[key]}"' not in r.stderr
                  or f'"{value}"' not in r.stderr):
                failures.append(f"differing {key} is not noted: {r.stderr.strip()}")

        extra = write_bench(d, "extra.json", threads=1, scale=1, seconds=2.0,
                            fingerprint=dict(FINGERPRINT, sin_path="avx512"))
        r = run(script, old, extra)
        if r.returncode != 0:
            failures.append(f"a fingerprint key only NEW has exited {r.returncode}: "
                            f"{r.stderr.strip()}")

        unstamped = write_bench(d, "unstamped.json", threads=1, scale=1, seconds=1.0,
                                fingerprint=None)
        r = run(script, unstamped, same)
        if r.returncode != 0:
            failures.append(f"OLD without a fingerprint exited {r.returncode}: {r.stderr.strip()}")
        elif "warning" not in r.stderr or "fingerprint" not in r.stderr:
            failures.append(f"OLD without a fingerprint did not warn: {r.stderr.strip()}")

    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        sys.exit(1)
    print("bench_diff_test: all cases passed")


if __name__ == "__main__":
    main()
