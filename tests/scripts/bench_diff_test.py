#!/usr/bin/env python3
"""Checks that scripts/bench_diff.py compares only comparable BENCH files.

Usage: bench_diff_test.py PATH/TO/bench_diff.py

Writes tiny BENCH documents to a temporary directory and asserts the exit
codes: matching scale and threads compare (exit 0); a differing "threads"
or "scale" in any NEW file is refused (non-zero, both values named).
"""
import json
import os
import subprocess
import sys
import tempfile


def write_bench(directory, name, threads, scale, seconds):
    path = os.path.join(directory, name)
    doc = {
        "schema": "mozart-bench-v1",
        "tag": name,
        "scale": scale,
        "threads": threads,
        "metrics": [{"bench": "b", "workload": "w", "config": "c", "metric": "seconds",
                     "value": seconds, "scale": scale}],
    }
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

    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        sys.exit(1)
    print("bench_diff_test: all cases passed")


if __name__ == "__main__":
    main()
