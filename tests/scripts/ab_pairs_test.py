#!/usr/bin/env python3
"""Checks scripts/ab_pairs.py on canned benchmark output.

Usage: ab_pairs_test.py PATH/TO/ab_pairs.py

Builds two fake checkouts whose perfbench/run.py prints a canned "# run"
line and result line and logs each call. Asserts that the runs alternate,
that the first tree flips on every pair, that every pair has its own seed,
that the medians, quartiles and pairs won come out of the canned values,
and that mismatched fingerprints and an incorrect run make it exit 1.
"""
import json
import os
import subprocess
import sys
import tempfile

FAKE_RUN = r'''
import json, os, sys
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(here, "fake.json")) as f:
    fake = json.load(f)
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(fake["log"], "a") as f:
    f.write(f"{fake['name']} {seed}\n")
print("# run " + json.dumps({"workload": "pandas", "seed": seed, "trace": 0,
                              "fingerprint": fake["fingerprint"]}))
print("# failures: {}")
metrics = {"cpu_ms": {"value": fake["cpu_ms"] + seed, "unit": "ms"},
           "setup_s": {"value": 1.0, "unit": "s"},
           "peak_rss_mb": {"value": fake["rss"], "unit": "MB"}}
print(json.dumps({"correct": fake["correct"], "attempted": 10, "failed": 0, "metrics": metrics}))
'''

SPEC = {"end_to_end": [{"name": "cpu_ms", "unit": "ms", "better": "lower", "bound": 0.25},
                       {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}


def make_tree(root, name, log, cpu_ms, rss, fingerprint, correct=True):
    tree = os.path.join(root, name)
    os.makedirs(os.path.join(tree, "perfbench"))
    with open(os.path.join(tree, "perfbench", "run.py"), "w") as f:
        f.write(FAKE_RUN)
    with open(os.path.join(tree, "BENCHMARK.json"), "w") as f:
        json.dump(SPEC, f)
    with open(os.path.join(tree, "fake.json"), "w") as f:
        json.dump({"name": name, "log": log, "cpu_ms": cpu_ms, "rss": rss,
                   "fingerprint": fingerprint, "correct": correct}, f)
    return tree


def run(script, a, b, pairs):
    return subprocess.run([sys.executable, script, a, b, "--workload", "pandas", "--pairs",
                           str(pairs), "--seconds", "1", "--seed0", "3"],
                          capture_output=True, text=True)


def main():
    script = sys.argv[1]
    failures = []
    fp = {"nproc": 4, "compiler": "GNU-12.2.0"}
    with tempfile.TemporaryDirectory() as d:
        log = os.path.join(d, "calls.log")
        a = make_tree(d, "A", log, 100.0, 200.0, fp)
        b = make_tree(d, "B", log, 90.0, 210.0, fp)
        r = run(script, a, b, 5)
        if r.returncode != 0:
            failures.append(f"matching runs exited {r.returncode}: {r.stderr.strip()}")
        with open(log) as f:
            calls = f.read().split("\n")[:-1]
        want = ["A 3", "B 3", "B 4", "A 4", "A 5", "B 5", "B 6", "A 6", "A 7", "B 7"]
        if calls != want:
            failures.append(f"run order {calls}, want {want}")
        rows = {line.split()[0]: line.split() for line in r.stdout.splitlines() if line}
        # cpu_ms: A is 100 + seed over seeds 3-7, B 90 + seed; B wins all.
        cpu = rows.get("cpu_ms", [])
        if cpu[1:2] != ["105"] or cpu[3:4] != ["95"] or cpu[-1] != "5/5":
            failures.append(f"cpu_ms row {cpu}")
        if cpu[2:3] != ["103.5-106.5"]:
            failures.append(f"cpu_ms A quartiles {cpu[2:3]}, want 103.5-106.5")
        # Equal setup_s wins no pair; B's larger peak_rss_mb wins none.
        for name in ("setup_s", "peak_rss_mb"):
            if rows.get(name, [""])[-1] != "0/5":
                failures.append(f"{name} row {rows.get(name)}")

        # A tree on another host fingerprint is refused.
        c = make_tree(d, "C", log, 90.0, 210.0, dict(fp, nproc=8))
        r = run(script, a, c, 2)
        if r.returncode == 0 or "fingerprint" not in r.stderr:
            failures.append(f"mismatched fingerprints exited {r.returncode}: {r.stderr.strip()}")

        # An incorrect run fails the comparison.
        e = make_tree(d, "E", log, 90.0, 210.0, fp, correct=False)
        r = run(script, a, e, 2)
        if r.returncode != 1:
            failures.append(f"an incorrect run exited {r.returncode}")

    for failure in failures:
        print("FAIL: " + failure)
    print("ab_pairs_test: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
