#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag wall-time regressions.

Usage:
  scripts/bench_diff.py OLD.json NEW.json [NEW2.json ...] [--threshold 0.20] [--all]

Matches metrics on (bench, workload, config, metric) and reports the ratio
new/old. Only wall-time metrics (metric == "seconds") count toward the
regression verdict; counter metrics are shown with --all for context.

When more than one NEW file is given (repeat runs — see MOZART_BENCH_REPEATS
in scripts/bench.sh), each metric's NEW value is the per-metric median
across the files: median-of-3 filters the one-off scheduler hiccups that
dominate single-core CI wall times.

Files measured at a different scale or thread count, or on another host
or build, are not comparable: the script exits non-zero, naming both
values, when any NEW file's "scale" or "threads", or a host or build key of
its "fingerprint" (L2 size, compiler, build type; written by
scripts/bench.sh), differs from OLD's. The fingerprint's other keys are
printed, not refused, when they differ: the vecmath code paths and the
element-wise loop build ("simd_loops") are what a change under test may
itself switch, and the transparent-huge-page mode ("hugepages") is a host
setting that moves large-array timings without changing any result. A
difference there is part of what the comparison measures; so is a key only
one file has. A file without a fingerprint (one written before bench.sh
stamped them) only draws a warning.

Otherwise advisory by design: the exit code is 0 unless the inputs are
unusable — single-core CI wall times are too noisy to gate on (ROADMAP).
Use the printed REGRESSION lines in review instead.
"""
import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    metrics = {}
    for m in doc.get("metrics", []):
        key = (m.get("bench"), m.get("workload"), m.get("config"), m.get("metric"))
        metrics[key] = float(m.get("value", 0.0))
    return doc, metrics


def load_median(paths):
    """Loads every path and medians each metric across the files that have it.

    Returns every file's document (in `paths` order) and the merged metrics.
    """
    docs, per_file = [], []
    for p in paths:
        doc, metrics = load(p)
        docs.append(doc)
        per_file.append(metrics)
    merged = {}
    for key in {k for metrics in per_file for k in metrics}:
        merged[key] = statistics.median(m[key] for m in per_file if key in m)
    return docs, merged


# Fingerprint keys that name the host and build; the rest name code paths
# and the huge-page mode.
HOST_KEYS = ("l2_bytes", "compiler", "build_type")


def check_comparable(old_path, old_doc, new_paths, new_docs):
    """Exits non-zero when a NEW file was measured at another scale, thread count or host."""
    for path, doc in zip(new_paths, new_docs):
        for field in ("threads", "scale"):
            if doc.get(field) != old_doc.get(field):
                sys.exit(f"bench_diff: {field} differs: {old_path} has {old_doc.get(field)}, "
                         f"{path} has {doc.get(field)}; refusing to compare")
        old_fp, new_fp = old_doc.get("fingerprint"), doc.get("fingerprint")
        if old_fp is None or new_fp is None:
            missing = old_path if old_fp is None else path
            print(f"bench_diff: warning: {missing} has no host fingerprint; "
                  f"cannot tell whether the hosts match", file=sys.stderr)
            continue
        for key in sorted(set(old_fp) | set(new_fp)):
            o, n = old_fp.get(key), new_fp.get(key)
            if o == n:
                continue
            if key in HOST_KEYS and key in old_fp and key in new_fp:
                sys.exit(f"bench_diff: fingerprint {key} differs: {old_path} has "
                         f"{json.dumps(o)}, {path} has {json.dumps(n)}; refusing to compare")
            print(f"bench_diff: note: fingerprint {key}: {old_path} has {json.dumps(o)}, "
                  f"{path} has {json.dumps(n)}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old")
    ap.add_argument("new", nargs="+",
                    help="one or more NEW files; >1 compares per-metric medians")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="flag wall-time ratios above 1+threshold (default 0.20)")
    ap.add_argument("--all", action="store_true",
                    help="also print non-wall-time (counter) metrics")
    args = ap.parse_args()

    old_doc, old = load(args.old)
    new_docs, new = load_median(args.new)
    check_comparable(args.old, old_doc, args.new, new_docs)
    new_doc = new_docs[0]

    new_desc = args.new[0] if len(args.new) == 1 else \
        f"median of {len(args.new)} runs ({', '.join(args.new)})"
    print(f"bench_diff: {args.old} (tag {old_doc.get('tag')}, scale {old_doc.get('scale')}, "
          f"threads {old_doc.get('threads')}) vs {new_desc} (tag {new_doc.get('tag')})")

    shared = sorted(set(old) & set(new))
    if not shared:
        sys.exit("bench_diff: no overlapping metrics")

    regressions = 0
    improvements = 0
    for key in shared:
        bench, workload, config, metric = key
        o, n = old[key], new[key]
        is_wall = metric == "seconds"
        if not is_wall and not args.all:
            continue
        if o <= 0:
            ratio_s = "  n/a"
            flag = ""
        else:
            ratio = n / o
            ratio_s = f"{ratio:5.2f}"
            if is_wall and ratio > 1.0 + args.threshold:
                flag = f"  <-- REGRESSION (> {args.threshold:.0%})"
                regressions += 1
            elif is_wall and ratio < 1.0 - args.threshold:
                flag = "  (improved)"
                improvements += 1
            else:
                flag = ""
        print(f"  {bench:16s} {workload:22s} {config:18s} {metric:22s} "
              f"{o:14.6g} -> {n:14.6g}  x{ratio_s}{flag}")

    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"bench_diff: {len(only_old)} metric(s) dropped in {new_desc}:")
        for bench, workload, config, metric in only_old:
            print(f"  - {bench}/{workload}/{config}/{metric}")
    if only_new:
        print(f"bench_diff: {len(only_new)} metric(s) new in {args.new}:")
        for bench, workload, config, metric in only_new:
            print(f"  + {bench}/{workload}/{config}/{metric}")
    print(f"bench_diff: {len(shared)} shared metrics, "
          f"{regressions} wall-time regression(s), {improvements} improvement(s) "
          f"at ±{args.threshold:.0%}")
    # Advisory: always exit 0 on a successful comparison.


if __name__ == "__main__":
    main()
