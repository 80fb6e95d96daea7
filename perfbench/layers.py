"""Per-layer metrics derived from a traced run's span dump.

The dump (written by the perfbench binary at exit, see trace.h) holds spans
recorded around calls into the runtime's public API and per-evaluation
deltas of EvalStats counters. Every per-layer metric of BENCHMARK.json is
computed here from that file alone (run.py takes their names and units from
BENCHMARK.json). A metric that does not apply to a
workload (for example the load generator's lateness on a batch workload, or
the fused baseline on serving) reads 0.

Conventions: split/task/merge counters are summed across the executor's
workers, so they are divided by the worker count to compare with wall time;
executor.unattributed_ms is the evaluate wall time that neither the planner
nor that per-worker executor time explains (the ROADMAP item 1 residual,
measured from outside the runtime).
"""

import json
import statistics
from collections import defaultdict

ROOTS = ("eval", "request")  # the per-evaluation root span of each kind of workload


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def load(path):
    with open(path) as f:
        return json.load(f)


def derive(dump, untraced_latency_ms):
    meta = dump["meta"]
    extra = meta["extra"]
    threads = extra["exec_threads"]
    fields = dump["span_fields"]
    spans = [dict(zip(fields, s)) for s in dump["spans"]]

    # Per request: total duration of each span name.
    per_req = defaultdict(lambda: defaultdict(int))
    roots = {}
    singles = defaultdict(list)  # spans outside any request (baselines)
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        if s["request"] < 0:
            singles[s["name"]].append(dur)
            continue
        per_req[s["request"]][s["name"]] += dur
        if s["name"] in ROOTS:
            roots[s["request"]] = dur
    counters = {c["request"]: c for c in dump["counters"] if c["request"] in roots}
    reqs = sorted(set(roots) & set(counters))
    if not reqs:
        raise ValueError("trace holds no complete evaluation")

    def med(fn):
        return _median([fn(per_req[r], counters[r]) for r in reqs])

    def total(key):
        return sum(counters[r][key] for r in reqs)

    ms = 1e-6
    evaluate_ns = med(lambda s, c: s["evaluate"])
    worker_ns = lambda c: (c["split_ns"] + c["task_ns"] + c["merge_ns"]) / threads
    mozart_ms = med(lambda s, c: roots_of(s) - s["check"] - s["reset"]) * ms
    base_ms = _median(singles["library.base"]) * ms
    fused_ms = _median(singles["baselines.fused"]) * ms
    traced_p50 = _median([roots[r] * ms for r in reqs])
    untraced_p50 = _median(untraced_latency_ms)

    return {
        "capture.ms": med(lambda s, c: s["capture"]) * ms,
        "capture.nodes": med(lambda s, c: c["nodes_executed"]),
        "planner.ms": med(lambda s, c: c["planner_ns"]) * ms,
        "planner.stages": med(lambda s, c: c["stages"]),
        "planner.elided": med(lambda s, c: c["boundaries_elided"]),
        "plan_cache.hit_ratio": _ratio(total("plan_cache_hits"),
                                       total("plan_cache_hits") + total("plan_cache_misses")),
        "executor.evaluate_ms": evaluate_ns * ms,
        "executor.split_ms": med(lambda s, c: c["split_ns"] / threads) * ms,
        "executor.task_ms": med(lambda s, c: c["task_ns"] / threads) * ms,
        "executor.merge_ms": med(lambda s, c: c["merge_ns"] / threads) * ms,
        "executor.busy_ratio": med(lambda s, c: _ratio(worker_ns(c), s["evaluate"])),
        "executor.unattributed_ms":
            med(lambda s, c: s["evaluate"] - c["planner_ns"] - worker_ns(c)) * ms,
        "executor.merge_avoided_mb": med(lambda s, c: c["bytes_merge_avoided"]) * 1e-6,
        "executor.footprint_mb": max(counters[r]["footprint_bytes_max"] for r in reqs) * 1e-6,
        "memory.computed_gbps": _ratio(extra.get("computed_bytes", 0.0), evaluate_ns),
        "future.get_ms": _median([s["future.get"] for s in per_req.values()
                                  if s["future.get"]]) * ms,
        "admission.wait_ms": _ratio(total("admission_wait_ns"), total("pooled_evals")) * ms,
        "admission.pooled_ratio": _ratio(total("pooled_evals"), total("evaluations")),
        "batch.batched_ratio": _ratio(total("batched_evals"), total("evaluations")),
        "batch.window_us": _ratio(total("batch_window_adapted_us"), total("batched_evals")),
        "batch.coalesced_ratio": _ratio(extra.get("batch_coalesced_jobs", 0.0),
                                        extra.get("batch_jobs", 0.0)),
        "session.create_ms": _median([s["session.create"] for s in per_req.values()
                                      if s["session.create"]]) * ms,
        "session.reset_ms": med(lambda s, c: s["reset"]) * ms,
        "loadgen.late_ms": extra.get("late_p99_ms", 0.0),
        "loadgen.offered_per_s": extra.get("offered_per_s", 0.0),
        "library.base_ms": base_ms,
        "baselines.fused_ms": fused_ms,
        "mozart.speedup_x": _ratio(base_ms, mozart_ms),
        "mozart.fused_gap_x": _ratio(mozart_ms, fused_ms) if fused_ms else 0.0,
        "trace.overhead_pct": _ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
    }


def roots_of(span_totals):
    return sum(span_totals[name] for name in ROOTS)
