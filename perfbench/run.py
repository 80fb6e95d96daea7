#!/usr/bin/env python3
"""Mozart benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt) into .bench_build/; later runs only
rebuild what changed. The binary generates the workload's inputs from the
seed, sets it up several times, then evaluates it for --seconds, checking
every result against the eager unannotated library. This script turns its
raw measurements into the metrics BENCHMARK.json names and prints them as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, which time in process CPU time;
--trace 1 runs the traced variant and prints the per-layer metrics derived
from its span dump (layers.py) and its wall times (wall_metrics).
--corrupt flips one output element before its check, to show the check
fails (correct becomes false). README.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("blackscholes", "shallow_water", "pandas", "serving")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 120
# A timed run is split across this many benchmark processes, run one after the
# other, and their samples are pooled. One process's figures can sit a few
# percent off the next one's while staying steady within itself, so pooling
# several processes is what makes run-to-run medians repeat.
PROCESSES = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def spawn(cmd, timeout):
    """Runs cmd with its output on stderr; the last line of stdout stays ours."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"{cmd[0]} failed: {e}")


def metric_units(kind):
    """{name: unit} of the BENCHMARK.json metrics of one kind, in its order."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["unit"] for m in json.load(f)[kind]}
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read the metrics from BENCHMARK.json: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no Mozart sources in {ROOT}: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        # The repository's own build type (its CMakeLists default, and what
        # scripts/bench.sh builds). Downloads stay off: the repository builds
        # from its own files.
        spawn(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"], BUILD_TIMEOUT_S)
    spawn(["cmake", "--build", BUILD, "--target", "perfbench", "-j", str(os.cpu_count() or 1)],
          BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def percentile(values, p):
    values = sorted(values)
    return values[min(len(values) - 1, int(p * len(values)))]


def end_to_end(raws):
    """The end-to-end metrics of one run, pooled over its processes.

    Times are process CPU time, not wall time: on a shared host the wall time
    of the same code moved by up to 0.7 of its median from run to run with
    the host's CPU steal, while CPU time, which excludes steal, moved by
    0.03-0.07 (README.md, steadiness record). Wall times are per-layer
    metrics of the traced run (wall_metrics).
    """
    if not any(raw["latency_ms"] for raw in raws):
        fail("no evaluation completed")
    if raws[0]["workload"] == "serving":
        # Requests overlap on the pool threads, so CPU time is per request
        # over the whole timed window.
        cpu_ms = 1e3 * sum(raw["window_cpu_s"] for raw in raws) / \
            sum(raw["attempted"] for raw in raws)
        note = "cpu_ms = timed-window process CPU time / requests"
    else:
        cpu_ms = statistics.median(x for raw in raws for x in raw["cpu_ms"])
        note = "cpu_ms = median process CPU time of one evaluation"
    metrics = {
        "cpu_ms": cpu_ms,
        "setup_s": statistics.median(x for raw in raws for x in raw["setup_cpu_s"]),
        "peak_rss_mb": max(raw["peak_rss_mb"] for raw in raws),
    }
    return metrics, [note, f"pooled over {len(raws)} processes"]


def wall_metrics(raw):
    """Wall-time figures of a traced run, from its untraced evaluations."""
    latency = raw["untraced_latency_ms"]
    if raw["workload"] == "serving":
        # Goodput: requests that completed correctly within the latency limit.
        done = sum(1 for x in latency if x <= raw["extra"]["limit_ms"])
    else:
        done = len(latency)
    return {
        "wall.p50_ms": statistics.median(latency),
        "wall.p90_ms": percentile(latency, 0.9),
        # Only every other evaluation is untraced, so half the window is theirs.
        "wall.rate_per_s": done / (raw["window_s"] / 2),
        "wall.setup_s": statistics.median(raw["setup_s"]),
    }


def run_process(binary, args, seconds, stem):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{seconds:.6g}", "--trace", str(args.trace), "--out", stem + ".raw.json"]
    if args.trace:
        cmd += ["--trace-out", stem + ".spans.json"]
    if args.corrupt:
        cmd.append("--corrupt")
    spawn(cmd, RUN_TIMEOUT_S)
    with open(stem + ".raw.json") as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    binary = build()
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    stem = os.path.join(BUILD, "runs", f"{args.workload}-{args.seed}-trace{args.trace}")

    if args.trace:
        # One process: the span dump and the untraced reference come from it.
        raws = [run_process(binary, args, args.seconds, stem)]
        values = layers.derive(layers.load(stem + ".spans.json"), raws[0]["untraced_latency_ms"])
        values.update(wall_metrics(raws[0]))
        units = metric_units("per_layer")
        notes = [f"trace dump: {os.path.relpath(stem + '.spans.json', ROOT)}"]
    else:
        raws = [run_process(binary, args, args.seconds / PROCESSES, f"{stem}-p{i}")
                for i in range(PROCESSES)]
        values, notes = end_to_end(raws)
        units = metric_units("end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        fail(f"no value for the BENCHMARK.json metrics {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failures = {}
    for raw in raws:
        for reason, count in raw["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    attempted = sum(raw["attempted"] for raw in raws)
    correct = attempted > 0 and not failures.get("mismatch") and not failures.get("exception")
    fingerprints = {json.dumps(raw["fingerprint"], sort_keys=True) for raw in raws}
    if len(fingerprints) != 1:
        fail("benchmark processes disagree on the host fingerprint")
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "fingerprint": raws[0]["fingerprint"]},
                                 sort_keys=True))
    for note in notes + [f"failures: {failures}"]:
        print("# " + note)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": sum(raw["failed"] for raw in raws), "metrics": metrics}))


if __name__ == "__main__":
    main()
