#!/usr/bin/env python3
"""Spread of one set of benchmark runs, or one set against another.

    python3 perfbench/compare.py RUNS              # median and spread per metric
    python3 perfbench/compare.py BASE NEW          # NEW's medians against BASE's

A runs file is the concatenated standard output of run.py invocations (each
run prints a "# run {...}" line before its result line). The spread of a
metric is the distance between the first and third quartile of its values,
as a share of their median; it should stay below a third of the metric's
bound in BENCHMARK.json. A comparison flags every end-to-end metric whose
median got worse by more than its bound.

Runs are comparable only from one host fingerprint (nproc, cache sizes,
compiler, build type, alignment flags, worker threads): the comparison
refuses mixed fingerprints, so a run at another thread count is never
compared with this one. Exit status: 0 clean, 1 regression or refusal.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(path):
    """{(workload, trace): {metric: [values]}} and the set of fingerprints."""
    runs = defaultdict(lambda: defaultdict(list))
    fingerprints = set()
    ident = None
    with open(path) as f:
        for line in f:
            if line.startswith("# run "):
                ident = json.loads(line[len("# run "):])
                fingerprints.add(json.dumps(ident["fingerprint"], sort_keys=True))
            elif line.startswith("{") and ident is not None:
                result = json.loads(line)
                key = (ident["workload"], ident["trace"])
                for name, m in result["metrics"].items():
                    runs[key][name].append(m["value"])
                runs[key]["failed"].append(result["failed"])
                ident = None
    return runs, fingerprints


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(SPEC) as f:
        bounds = {m["name"]: (m["bound"], m["better"]) for m in json.load(f)["end_to_end"]}
    sets = [load_runs(p) for p in sys.argv[1:]]
    prints = set().union(*(fp for _, fp in sets))
    if len(prints) > 1:
        print("refused: runs come from different host fingerprints:")
        for fp in sorted(prints):
            print("  " + fp)
        return 1
    status = 0
    base = sets[0][0]
    new = sets[-1][0]
    for key in sorted(base):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key]['failed'])} runs")
        for name, values in base[key].items():
            med, sp = spread(values)
            bound, better = bounds.get(name, (None, None))
            line = f"  {name:26s} median {med:12.5g}  spread {sp:6.3f}"
            if bound is not None:
                line += f"  bound {bound:.2f}" + ("" if sp < bound / 3 else "  SPREAD>bound/3")
            if len(sets) == 2 and name in new.get(key, {}):
                new_med, new_sp = spread(new[key][name])
                change = (new_med - med) / med if med else 0.0
                worse = change if better == "lower" else -change
                line += f"  -> {new_med:12.5g} ({change:+.3f}, spread {new_sp:.3f})"
                if bound is not None and worse > bound:
                    line += "  REGRESSION"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
