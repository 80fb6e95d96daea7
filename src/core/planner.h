// Converting the captured dataflow graph into an execution plan (§5.1).
//
// A plan is a sequence of *stages*. Within a stage, functions are pipelined:
// inputs are split once, every function in the stage runs on each piece while
// it is cache-resident, and outputs are merged at the stage boundary. Two
// adjacent functions land in the same stage iff every value passed between
// them has the same split type; otherwise the value must be merged and
// re-split, which forces a stage break.
//
// Split types are resolved with a two-phase algorithm:
//  1. an inference pass over the whole graph unifies generics with the types
//     flowing along dataflow edges (union-find with "soft" unification:
//     conflicting concrete types simply stay un-unified and surface later as
//     stage breaks), mirroring the paper's use of local type inference;
//  2. a linear scan over capture order groups nodes into stages, tracking
//     which slots are currently split and breaking when a node needs a value
//     in a different shape (different split type, or the full value for a
//     "_" argument).
//
// Inference classes that remain unbound fall back to the *default split
// type* registered for the value's C++ type, and class parameters that
// depend on still-pending values are deferred to execution time ("late"
// constructors) — see registry.h.
#ifndef MOZART_CORE_PLANNER_H_
#define MOZART_CORE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/task_graph.h"

namespace mz {

struct PlannedArg {
  int buffer = -1;  // index into Stage::buffers
};

struct PlannedFunc {
  int node_index = -1;  // index into TaskGraph::nodes()
  std::vector<PlannedArg> args;
  int ret_buffer = -1;  // -1 for void functions
};

// One pipelined value inside a stage: a split input, a broadcast ("_") value,
// or an intermediate produced by a function in the stage.
struct StageBuffer {
  SlotId slot = kInvalidSlot;
  bool is_broadcast = false;  // full value copied into every pipeline
  // A broadcast every reference of which is a halo (mz::Halo()): read whole
  // like "_", but a batch touches only the rows around its band, so the
  // footprint model charges it per element instead of as resident bytes.
  bool is_halo = false;
  bool is_input = false;      // split at stage entry
  bool is_output = false;     // merged at stage exit back into the slot

  // Split/merge resolution. Exactly one of these shapes applies:
  //  * use_default_split: type resolved at execution from the value's C++
  //    type default (unbound generics, re-split of `unknown` values);
  //  * split_name + params_deferred: named type whose parameters are
  //    computed at execution by the late constructor (pending ctor args);
  //  * split_name + params: fully resolved at plan time.
  // merge_by_piece_type applies to produced (non-input) buffers whose merge
  // splitter is found from the default split type of the piece's C++ type.
  bool use_default_split = false;
  bool params_deferred = false;
  bool merge_by_piece_type = false;
  InternedId split_name = 0;
  std::vector<std::int64_t> params;

  // Stage-boundary carry-over (piece passing). Set by the planner's
  // post-pass when the producing and consuming stages agree on the split
  // stream, so the executor can hand the per-worker piece sets across the
  // boundary instead of merging here and re-splitting there:
  //  * carry_out — this buffer's pieces are passed to a later stage; its
  //    merge is elided (sound because either nothing outside that stage can
  //    observe the merged value, or the merge is an identity — see
  //    SplitterTraits in splitter.h);
  //  * carry_in — this split input receives carried pieces; no Split calls,
  //    and the stage's batch structure is the carried pieces' ranges.
  // Both are pure functions of fingerprinted planner inputs, so cached plan
  // templates reproduce them exactly on warm instantiation.
  bool carry_out = false;
  bool carry_in = false;

  // Lazy merge-on-get: this carry_out buffer's slot is pinned by a live
  // Future, so the executor parks the ordered pieces on the slot
  // (Slot::deferred) instead of merging; Future::get() — or a later capture
  // referencing the slot — merges on demand. Only set together with
  // carry_out on owned (non-identity) streams whose consumer reads them
  // immutably.
  bool deferred_merge = false;

  // Per-stage footprint model (§5.2 extension): the splitter-declared
  // bytes-per-element of this buffer's stream (SplitterTraits::
  // element_width via the registry). The executor prefers live Info() for
  // freshly split inputs and falls back to this hint for buffers it cannot
  // Info() — produced values and carried pieces — so each stage's batch is
  // sized by the bytes *that stage* keeps live per element. Derived purely
  // from fingerprinted inputs (split names, value C++ types, registry
  // version), so plan templates reproduce it bit-identically.
  std::int64_t elem_bytes_hint = 0;

  // Planning-internal: inference class root for same-stream checks.
  int class_id = -1;
  std::string debug_type;
};

struct Stage {
  std::vector<PlannedFunc> funcs;
  std::vector<StageBuffer> buffers;
  bool serial = false;  // no split arguments: run once, unsplit
  // Carry-over summary (see StageBuffer::carry_{in,out}): whether any buffer
  // of this stage hands pieces to a later stage / receives carried pieces.
  bool feeds_carries = false;
  bool takes_carries = false;
  // Inter-stage pipeline parallelism (AnnotatePipeline): consecutive stages
  // whose every split input is carried from within the run form a
  // *pipelineable region* — the executor may overlap them across the batch
  // loop (batch i in stage k while batch i-1 runs stage k+1). -1 when the
  // stage is not part of any region; a stage's depth is its position in
  // the region. Derived purely from fingerprinted planner inputs, so cached
  // templates reproduce the schedule exactly.
  int pipeline_region = -1;  // region id, shared by the region's stages
};

// A plan references its graph only through PlannedFunc::node_index and
// StageBuffer::slot. The plan cache (plan_cache.h) exploits this: cached
// *templates* are Plans whose node indices are range-relative and whose
// slot fields hold canonical local ids instead of SlotIds, rewritten on
// instantiation. Keep any new graph reference added here representable
// under that rewrite. The carry fields (carry_{in,out}, {feeds,takes}_
// carries) are plain value state derived from fingerprinted inputs, so they
// ride the template verbatim.
struct Plan {
  std::vector<Stage> stages;
};

class Planner {
 public:
  // `pipeline=false` reproduces the paper's "-pipe" ablation (Table 4):
  // every node gets its own stage — still split and parallelized, never
  // pipelined with its neighbours.
  Planner(const TaskGraph& graph, const Registry& registry, bool pipeline);

  // Plans nodes [first_node, end_node). Throws mz::Error on annotations the
  // runtime cannot execute (e.g. a non-serial node with a mut "_" argument).
  Plan Build(int first_node, int end_node);

 private:
  struct Class {
    int parent = -1;  // union-find; self when root
    bool bound = false;
    SplitType type = SplitType::Concrete(0, {});  // valid when bound
    InternedId name_constraint = kNoConstraint;   // deferred concrete types
  };
  static constexpr InternedId kNoConstraint = static_cast<InternedId>(-1);

  int NewClass();
  int Find(int c);
  void SoftUnify(int a, int b);

  // Inference pass: fills arg_classes_ / ret_classes_.
  void InferTypes(int first_node, int end_node);

  // Post-pass over the built stages: marks StageBuffer::carry_{in,out} for
  // boundary buffers whose pieces can pass to the consuming stage (same
  // split stream, sound to skip the merge, consuming stage batchable from
  // the carried ranges). See the rules in planner.cc.
  void AnnotateCarries(Plan* plan);

  // Post-pass: fills StageBuffer::elem_bytes_hint from splitter-declared
  // element widths (per-stage footprint model). Broadcast values are hinted
  // too (they are charged as resident bytes against the batch budget), and
  // parameterized splitters report exact widths via WidthForParams.
  void AnnotateFootprints(Plan* plan);

  // Post-pass (after AnnotateCarries): groups maximal runs of consecutive
  // carried stages into pipelineable regions, recording
  // Stage::pipeline_{region,depth}. See the eligibility rules in planner.cc.
  void AnnotatePipeline(Plan* plan);

  int ClassForConcreteExpr(const SplitExpr& expr, const Node& node);

  const TaskGraph& graph_;
  const Registry& registry_;
  bool pipeline_;

  std::vector<Class> classes_;
  std::uint64_t next_unknown_id_ = 1;
  // Indexed [node - first_node][arg]; -1 for "_" arguments.
  std::vector<std::vector<int>> arg_classes_;
  std::vector<int> ret_classes_;  // -1 when void / no split
};

}  // namespace mz

#endif  // MOZART_CORE_PLANNER_H_
