// The Mozart execution engine (§5.2 of the paper).
//
// Executes a Plan stage by stage; consecutive carried stages the planner
// grouped into a pipeline region run as one region (a standalone stage is
// a region of depth 1). RunRegion drives one region through named units:
//  1. ResolveBuffers: for every depth, resolve each split input (Info()
//     gives element totals and per-element footprints), each broadcast,
//     and each carried input — claimed from the previous region at depth
//     0, wired to its in-region producer deeper.
//  2. SizeBatch: size the batch to roughly C * sizeof(L2 cache) / the
//     widest depth's bytes per element.
//  3. ReconcileCarried: bring carried piece sets to one batch structure
//     (see below).
//  4. BuildTasks: one list of batch tasks, cut from the carried pieces,
//     from each worker's contiguous chunk (static partitioning), or by
//     global stepping (dynamic scheduling).
//  5. Walk the list one of two ways. The static walk gives each worker its
//     own slice and runs every batch through every depth while it is
//     cache-hot; the dynamic walk claims (batch, depth) runs from a shared
//     queue, deepest first. Each run splits the inputs for the batch, runs
//     the stage's functions in program order on the cache-resident pieces,
//     and stashes output pieces; static workers then merge their own
//     pieces (associative merge).
//  6. HandOff: pass carried-out pieces to the next region and collect the
//     remaining merges.
//  7. MergeTree: combine per-worker partials (or, under dynamic scheduling,
//     the start-ordered pieces) in grouped partial merges on the pool, fold
//     the roots on the calling thread, and write the dataflow graph's
//     slots.
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
// template set's ranges are subdivided or coalesced per worker (adjacent
// pieces grouped toward the target batch), preserving order tags and
// worker affinity. Every carried set — including a second producer's
// under dynamic scheduling — is then brought to those ranges: kept when
// already in them, re-sliced from an identity stream's full value (pointer
// arithmetic), re-cut from owned pieces that tile the stream (moving whole
// pieces, merging groups, and cutting inside a piece only when the
// splitter declares can_subdivide), or else materialized — merged into the
// slot and re-split like a fresh input — so multi-producer carry chains
// degrade gracefully instead of erroring.
#ifndef MOZART_CORE_EXECUTOR_H_
#define MOZART_CORE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/registry.h"
#include "core/stats.h"
#include "core/task_graph.h"

namespace mz {

struct ExecOptions {
  std::int64_t batch_override = 0;  // 0 = use the L2 heuristic (L2CacheBytes())
  bool pedantic = false;  // §7.1 debugging mode: hard-fail on bad splits
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

 private:
  // Reusable per-run scratch (per-depth pieces/partials tables, per-worker
  // cursors, the task list and the dynamic queue), so back-to-back regions
  // stop hammering the allocator, plus the piece sets in flight between
  // regions; defined in the .cc.
  struct Scratch;
  // One region's run: the per-region state RunRegion's units share, with
  // the units as its methods; defined in the .cc.
  class RegionRun;

  // Runs one pipelineable region: `stages` is a run of consecutive plan
  // stages sharing a pipeline_region id (or a single stage — the degenerate
  // region every stage becomes when pipelining is off or the planner found
  // no region). Calls the units listed at the top of this file in order:
  // depth 0 claims carried sets / splits fresh inputs exactly like a
  // standalone stage; deeper stages are fed in-flight pieces within one
  // walk of the task list, overlapping across batches.
  void RunRegion(const std::vector<const Stage*>& stages);
  void RunSerialStage(const Stage& stage);

  TaskGraph* graph_;
  const Registry* registry_;
  ThreadPool* pool_;
  ExecOptions opts_;
  EvalStats* stats_;
  std::unique_ptr<Scratch> scratch_;
};

}  // namespace mz

#endif  // MOZART_CORE_EXECUTOR_H_
