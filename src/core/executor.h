// The Mozart execution engine (§5.2 of the paper).
//
// Executes a Plan stage by stage:
//  1. Discover runtime parameters: call each split input's Info() to learn
//     total element counts and per-element cache footprints, then set the
//     batch size to roughly C * sizeof(L2 cache) / sum(bytes per element).
//  2. Execute: workers statically partition the element range (one
//     contiguous chunk per worker). Each worker's driver loop splits every
//     input for the current batch, runs the stage's functions in program
//     order on the cache-resident pieces, and stashes output pieces.
//  3. Merge: each worker merges its own pieces (associative merge), then the
//     remaining per-worker partials are combined by a parallel merge tree on
//     the pool (grouped partial merges on workers, root merge on the calling
//     thread) and written back into the dataflow graph's slots.
//
// Piece passing (stage-boundary elision): when the planner marked a buffer
// carry_out/carry_in (planner.h), the producing stage skips its merge and
// hands the per-worker piece sets to the consuming stage, which skips its
// Split calls and batches by the carried ranges. ExecOptions::
// elide_boundaries ablates this at execution time: with it off, the carry
// marks are ignored and every boundary merges and re-splits as the paper
// describes.
//
// Footprint-aware per-stage batching: each stage's batch is sized from the
// bytes *that stage* keeps live per element — Info() for freshly split
// inputs plus the planner's splitter-declared hints for produced values and
// carried pieces (StageBuffer::elem_bytes_hint). When a consuming stage's
// chosen granularity diverges from its carried pieces by more than 2x, the
// pieces are re-batched before the stage runs: subdivided (identity streams
// re-slice the original storage — pointer arithmetic; owned streams
// re-Split their own pieces when the splitter declares can_subdivide) or
// coalesced per worker (adjacent pieces merged toward the target batch),
// preserving order tags and worker affinity.
// Carried sets whose range structure cannot be reconciled (e.g. a second
// producer stage under dynamic scheduling) are materialized — merged into
// the slot and re-split like a fresh input — so multi-producer carry chains
// degrade gracefully instead of erroring.
#ifndef MOZART_CORE_EXECUTOR_H_
#define MOZART_CORE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/registry.h"
#include "core/stats.h"
#include "core/task_graph.h"

namespace mz {

struct ExecOptions {
  std::int64_t batch_override = 0;  // 0 = use the L2 heuristic
  std::size_t l2_bytes = 256 * 1024;
  bool pedantic = false;      // §7.1 debugging mode: hard-fail on bad splits
  bool collect_stats = true;  // phase timers (Fig. 5)
  // The paper opts for static parallelism "because it is simpler to schedule
  // and... leads to similar results for most workloads; however, dynamic
  // work-stealing schedulers such as Cilk are also compatible" (§5.2). With
  // dynamic=true, workers pull batches from a shared counter instead of
  // owning contiguous ranges; output pieces carry their batch origin and are
  // sorted before merging so order-sensitive merges (concatenation) stay
  // correct. Helps skewed per-element costs (filters, joins, tagging).
  bool dynamic_scheduling = false;
  // Honor the planner's stage-boundary carry marks (piece passing). Off =
  // the ablation: merge at every stage exit, re-split at every entry.
  bool elide_boundaries = true;
  // Inter-stage pipeline parallelism: execute the planner's pipelineable
  // regions (Stage::pipeline_region) as one overlapped batch walk — batch i
  // runs stage k while batch i-1 runs stage k+1, so downstream compute and
  // per-worker merges drain concurrently with upstream compute. Requires
  // elide_boundaries (regions are built from carried boundaries). Off = the
  // ablation: every stage runs to completion before the next starts.
  bool pipeline_stages = true;
  // Cooperative cancellation (cancel.h): checked at stage boundaries, at
  // every batch a worker claims, and before each merge group. A stop
  // unwinds through the worker error path (first-exception capture plus
  // dynamic-queue poisoning), so static and dynamic schedules both abandon
  // the plan promptly and the throw surfaces on the calling thread. Inert
  // by default: checks cost one null test.
  CancelToken cancel;
};

class Executor {
 public:
  Executor(TaskGraph* graph, const Registry* registry, ThreadPool* pool, ExecOptions opts,
           EvalStats* stats);
  ~Executor();

  // Runs every stage; on return all output slots hold merged values and are
  // no longer pending. Throws mz::Error on unexecutable stages (missing
  // splitters, inconsistent element counts, ...). Exceptions from worker
  // threads are rethrown on the calling thread.
  void Run(const Plan& plan);

  // Batch size the heuristic would choose for a given per-element footprint
  // (exposed for tests and the Fig. 6 bench). `resident_bytes` is cache
  // budget consumed by values that sit resident for the whole stage
  // regardless of the batch size — broadcast ("_") operands such as a hash
  // join's build side — and is subtracted from the budget before dividing.
  // Halo operands (mz::Halo()) count in the per-element sum instead.
  std::int64_t HeuristicBatchElems(std::int64_t sum_bytes_per_element,
                                   std::int64_t resident_bytes = 0) const;

 private:
  // One output piece tagged with the batch range that produced it, so
  // dynamic scheduling can restore global order before merging and carried
  // pieces can drive the consuming stage's batch structure.
  struct OrderedPiece {
    std::int64_t start = 0;
    std::int64_t end = 0;
    Value piece;
  };

  // Pieces handed across a stage boundary instead of being merged:
  // per-worker piece lists (aligned by index across all buffers carried from
  // the same producer stage) plus the producer's element total and how many
  // consecutive carried boundaries this stream has crossed (chain length —
  // feeds EvalStats::carry_chain_len_max).
  struct CarriedSet {
    std::vector<std::vector<OrderedPiece>> per_worker;
    std::int64_t total = -1;
    int chain_len = 1;
  };

  // Reusable per-run scratch (per-depth pieces/partials tables, per-worker
  // cursors), so back-to-back stages stop hammering the allocator; defined
  // in the .cc.
  struct Scratch;

  // Runs one pipelineable region: `stages` is a run of consecutive plan
  // stages sharing a pipeline_region id (or a single stage — the degenerate
  // region every stage becomes when pipelining is off or the planner found
  // no region). Depth 0 claims carried sets / splits fresh inputs exactly
  // like a standalone stage; deeper stages are fed in-flight pieces within
  // one batch walk, overlapping across the batch loop.
  void RunRegion(const std::vector<const Stage*>& stages);
  void RunSerialStage(const Stage& stage);

  TaskGraph* graph_;
  const Registry* registry_;
  ThreadPool* pool_;
  ExecOptions opts_;
  EvalStats* stats_;
  std::unique_ptr<Scratch> scratch_;
  // Piece sets in flight between stages, keyed by the carried slot.
  std::unordered_map<SlotId, CarriedSet> carried_;
};

}  // namespace mz

#endif  // MOZART_CORE_EXECUTOR_H_
