// Runtime phase accounting, reproducing the paper's Fig. 5 breakdown:
// client (task registration), unprotect (lazy-heap memory permission flips),
// planner, split, task execution, and merge time — plus serving-layer
// counters (plan-cache hits/misses, admission decisions) for the concurrent
// multi-session runtime.
//
// Every counter is an atomic, so one EvalStats may be written concurrently
// by the executor's workers and by many client threads; aggregation across
// sessions uses plain-value Snapshots (Take) folded with Add.
//
// Each counter is declared once, as one row of MZ_EVAL_STATS below; the
// Snapshot fields, the atomics, Add, Take, Accumulate, Reset, ForEach and
// ToString are all generated from that table.
#ifndef MOZART_CORE_STATS_H_
#define MOZART_CORE_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>

// X(name, kind), one row per counter, in Snapshot field order. `kind` is how
// two values of the counter fold together: kSum adds them, kMax keeps the
// larger (a high-water mark).
#define MZ_EVAL_STATS(X)                                                       \
  /* The Fig. 5 phase timers (ns), then per-evaluation work counts.         */ \
  X(client_ns, kSum)                                                           \
  X(unprotect_ns, kSum)                                                        \
  X(planner_ns, kSum)                                                          \
  X(split_ns, kSum)                                                            \
  X(task_ns, kSum)                                                             \
  X(merge_ns, kSum)                                                            \
  X(evaluations, kSum)                                                         \
  X(stages, kSum)                                                              \
  X(batches, kSum)                                                             \
  X(nodes_executed, kSum)                                                      \
  /* Serving layer (see plan_cache.h / session.h): Planner::Build runs,     */ \
  /* evals that reused / had to build a cached plan, admission routes       */ \
  /* (inline on the caller / shared-pool token), and time blocked waiting   */ \
  /* for a token.                                                           */ \
  X(plans_built, kSum)                                                         \
  X(plan_cache_hits, kSum)                                                     \
  X(plan_cache_misses, kSum)                                                   \
  X(serial_evals, kSum)                                                        \
  X(pooled_evals, kSum)                                                        \
  X(admission_wait_ns, kSum)                                                   \
  /* Plan-cache residency pressure: what this session's inserts displaced   */ \
  /* (plan_cache.h PlanCacheInsertOutcome).                                 */ \
  X(plan_cache_evictions, kSum)                                                \
  X(plan_cache_bytes_inserted, kSum)                                           \
  X(plan_cache_bytes_evicted, kSum)                                            \
  /* Small evals coalesced through the BatchCollector (batch.h).            */ \
  /* They also count as inline admissions: they are the inline class, just  */ \
  /* dispatched together, so inline + pooled still equals completed evals.  */ \
  X(batched_evals, kSum)                                                       \
  /* Stage-boundary piece passing (executor.h): buffers whose merge and     */ \
  /* re-split were elided, the pieces handed across those boundaries, and   */ \
  /* the merge traffic (best-effort bytes) the elisions avoided.            */ \
  X(boundaries_elided, kSum)                                                   \
  X(carry_pieces, kSum)                                                        \
  X(bytes_merge_avoided, kSum)                                                 \
  /* Footprint-aware per-stage batching: consumers whose carried pieces     */ \
  /* were re-cut to their own granularity, boundary merges parked on slots  */ \
  /* for lazy merge-on-get, the longest chain of consecutive carried        */ \
  /* boundaries one stream travelled, and the largest per-batch working set */ \
  /* (batch × Σ bytes-per-element + resident broadcast bytes) any stage ran */ \
  /* with.                                                                  */ \
  X(stages_rebatched, kSum)                                                    \
  X(deferred_merges, kSum)                                                     \
  X(carry_chain_len_max, kMax)                                                 \
  X(footprint_bytes_max, kMax)                                                 \
  /* Inter-stage pipeline parallelism: carried stage runs that executed as  */ \
  /* one overlapped region, worker time spent in the downstream depths of a */ \
  /* region (compute a serial stage order would run after the upstream      */ \
  /* one), the region prologue/epilogue time on the calling thread (the     */ \
  /* fill/flush cost overlap must amortize), and carried piece sets in a    */ \
  /* layout other than the stage template's re-cut in place because their   */ \
  /* ranges provably tiled the stream (the alternative to materialize +     */ \
  /* re-split).                                                             */ \
  X(pipeline_regions, kSum)                                                    \
  X(pipeline_overlap_ns, kSum)                                                 \
  X(fill_flush_ns, kSum)                                                       \
  X(carried_recuts, kSum)                                                      \
  /* Streaming/windowed execution (stream.h): window firings evaluated      */ \
  /* through Runtime::EvalStream, wall time from each window's assembly to  */ \
  /* its firing's completion (summed; divide by the firings for the mean),  */ \
  /* and reduction partials folded pairwise into stream accumulators        */ \
  /* instead of re-merged from scratch.                                     */ \
  X(window_firings, kSum)                                                      \
  X(window_lag_ns, kSum)                                                       \
  X(incremental_merges, kSum)                                                  \
  /* Serving hardening: total effective window chosen by adaptive           */ \
  /* BatchCollector leaders (µs; compare against dispatches × window_us to  */ \
  /* see what lone clients stopped paying), and the largest allocator-true  */ \
  /* plan-cache residency this session's inserts observed (bytes).          */ \
  X(batch_window_adapted_us, kSum)                                             \
  X(plan_cache_true_bytes, kMax)                                               \
  /* Request-lifecycle outcomes: evals rejected up front because the        */ \
  /* admission backlog already exceeded their deadline (shed) or the        */ \
  /* tenant's rate quota was exhausted, and evals that stopped on deadline  */ \
  /* expiry / explicit cancellation (in the gate's wait queue or            */ \
  /* mid-execution). None of these completed.                               */ \
  X(shed_evals, kSum)                                                          \
  X(quota_rejects, kSum)                                                       \
  X(deadline_evals, kSum)                                                      \
  X(cancelled_evals, kSum)                                                     \
  /* Client resilience (resilience.h): retry attempts launched (each debits */ \
  /* a retry-budget token), attempts refused for an empty budget, hedges    */ \
  /* launched / hedges that beat the primary, circuit-breaker open          */ \
  /* transitions, and evals rejected while the serving context was          */ \
  /* draining (OverloadError{kDraining}).                                   */ \
  X(retries, kSum)                                                             \
  X(retry_budget_exhausted, kSum)                                              \
  X(hedges_launched, kSum)                                                     \
  X(hedge_wins, kSum)                                                          \
  X(circuit_opens, kSum)                                                       \
  X(drained_evals, kSum)

namespace mz {

class EvalStats {
 public:
  enum class Kind { kSum, kMax };

  // Plain-value snapshot for reporting.
  struct Snapshot {
#define MZ_X(name, kind) std::int64_t name = 0;
    MZ_EVAL_STATS(MZ_X)
#undef MZ_X

    // Total across the per-phase wall-clock counters. Split/task/merge are
    // summed across workers, so on N threads this exceeds elapsed time.
    // Admission wait is queueing, not work, and is excluded.
    std::int64_t TotalNs() const {
      return client_ns + unprotect_ns + planner_ns + split_ns + task_ns + merge_ns;
    }

    // Folds another snapshot into this one (aggregation across sessions).
    void Add(const Snapshot& other) {
#define MZ_X(name, kind) \
  name = Kind::kind == Kind::kMax ? std::max(name, other.name) : name + other.name;
      MZ_EVAL_STATS(MZ_X)
#undef MZ_X
    }

    // Calls f(name, value, kind) for every counter, in table order.
    template <typename F>
    void ForEach(F&& f) const {
#define MZ_X(name, kind) f(#name, name, Kind::kind);
      MZ_EVAL_STATS(MZ_X)
#undef MZ_X
    }

    // "name=value" for every counter, space-separated, in table order.
    std::string ToString() const;
  };

  Snapshot Take() const {
    Snapshot s;
#define MZ_X(name, kind) s.name = name.load(std::memory_order_relaxed);
    MZ_EVAL_STATS(MZ_X)
#undef MZ_X
    return s;
  }

  // Folds a snapshot into the live counters (used by ServingContext when a
  // session retires).
  void Accumulate(const Snapshot& s) {
#define MZ_X(name, kind)                               \
  if (Kind::kind == Kind::kMax) {                      \
    MaxInto(name, s.name);                             \
  } else {                                             \
    name.fetch_add(s.name, std::memory_order_relaxed); \
  }
    MZ_EVAL_STATS(MZ_X)
#undef MZ_X
  }

  // Lock-free fold of a max-aggregated counter.
  static void MaxInto(std::atomic<std::int64_t>& counter, std::int64_t value) {
    std::int64_t cur = counter.load(std::memory_order_relaxed);
    while (value > cur &&
           !counter.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  void Reset() {
#define MZ_X(name, kind) name = 0;
    MZ_EVAL_STATS(MZ_X)
#undef MZ_X
  }

#define MZ_X(name, kind) std::atomic<std::int64_t> name{0};
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X
};

}  // namespace mz

#endif  // MOZART_CORE_STATS_H_
