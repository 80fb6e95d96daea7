#!/usr/bin/env python3
"""Alternating A/B runs of one benchmark workload from two checkouts.

    scripts/ab_pairs.py TREE_A TREE_B --workload W --pairs N --seconds S [--seed0 K]

Each pair runs `python3 perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` once in each checkout, with that checkout's own benchmark. Pair i
uses seed K+i (K defaults to 1), and the tree that goes first flips on every
pair, so host drift and first-run effects fall on both sides alike. Runs must
all report the same host fingerprint; the script refuses to compare
otherwise.

Per end-to-end metric it prints A's and B's medians with their first and
third quartiles, the change of B's median against A's, the median of the
per-pair changes, and the pairs B won (better by the metric's direction in
TREE_A's BENCHMARK.json). The raw run output goes to stderr as it arrives.
Exit status: 0 when every run reported correct; 1 on a refusal, an
incorrect run, or a failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 1800  # includes the first run's build of the benchmark


def fail(msg):
    print("ab_pairs: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_run(text):
    """(fingerprint, result) of one run.py output: its "# run" line and its
    last line."""
    fingerprint = None
    for line in text.splitlines():
        if line.startswith("# run "):
            fingerprint = json.loads(line[len("# run "):])["fingerprint"]
    lines = text.strip().splitlines()
    if fingerprint is None or not lines:
        raise ValueError("no '# run' line or no result line")
    return fingerprint, json.loads(lines[-1])


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    try:
        p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{tree}: seed {seed} timed out")
    sys.stderr.write(p.stdout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail(f"{tree}: seed {seed} exited {p.returncode}")
    try:
        return parse_run(p.stdout)
    except ValueError as e:
        fail(f"{tree}: seed {seed}: {e}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def directions(tree):
    """{metric: "lower" | "higher"} of the end-to-end metrics."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}


def summarize(pairs, better):
    """Table lines for pairs of (result A, result B)."""
    lines = [f"{'metric':14s} {'A median':>11s} {'A Q1-Q3':>21s} {'B median':>11s} "
             f"{'B Q1-Q3':>21s} {'change':>8s} {'pair med':>8s} {'B won':>7s}"]
    for name, direction in better.items():
        a = [ra["metrics"][name]["value"] for ra, _ in pairs]
        b = [rb["metrics"][name]["value"] for _, rb in pairs]
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        change = (b_med - a_med) / a_med if a_med else 0.0
        per_pair = statistics.median((y - x) / x if x else 0.0 for x, y in zip(a, b))
        won = sum(1 for x, y in zip(a, b) if (y < x if direction == "lower" else y > x))
        a_iqr = f"{a_q1:.5g}-{a_q3:.5g}"
        b_iqr = f"{b_q1:.5g}-{b_q3:.5g}"
        lines.append(f"{name:14s} {a_med:11.5g} {a_iqr:>21s} {b_med:11.5g} {b_iqr:>21s} "
                     f"{change:+8.1%} {per_pair:+8.1%} {f'{won}/{len(pairs)}':>7s}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    trees = [os.path.abspath(args.tree_a), os.path.abspath(args.tree_b)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            fail(f"{tree} has no perfbench/run.py")
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    pairs = []
    fingerprints = set()
    incorrect = 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        results = [None, None]
        for side in order:
            print(f"# pair {i + 1}/{args.pairs}: {'AB'[side]} seed {seed}", file=sys.stderr,
                  flush=True)
            fingerprint, result = run(trees[side], args.workload, seed, args.seconds)
            fingerprints.add(json.dumps(fingerprint, sort_keys=True))
            if len(fingerprints) > 1:
                fail("runs report different host fingerprints; refusing to compare:\n  " +
                     "\n  ".join(sorted(fingerprints)))
            if not result.get("correct") or result.get("failed", 0):
                incorrect += 1
            results[side] = result
        pairs.append(tuple(results))

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}, "
          f"{args.seconds:g} s each; A = {trees[0]}, B = {trees[1]}")
    print("fingerprint " + next(iter(fingerprints)))
    for line in summarize(pairs, directions(trees[0])):
        print(line)
    print(f"runs not correct or with failed operations: {incorrect}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
