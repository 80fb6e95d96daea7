// The lazily-captured dataflow graph (§4 of the paper).
//
// Nodes are calls to annotated functions; slots are the data values flowing
// between them. A slot is created per distinct *data identity*:
//  * pointer arguments alias by address — two calls passing the same
//    `double*` share a slot, which is how Mozart discovers RAW/WAR/WAW
//    dependencies between black-box calls (the SA's `mut` markers say which
//    accesses are writes);
//  * every return value gets a fresh slot, connected to consumers when its
//    Future is passed to a later call;
//  * plain by-value arguments get fresh slots (our object types are
//    immutable-by-convention, so they cannot carry cross-call dependencies).
//
// Capture order is program order, so it is always a valid topological order;
// the planner exploits this by building stages with a single linear scan.
//
// TaskGraph is externally synchronized (the Runtime holds the lock).
#ifndef MOZART_CORE_TASK_GRAPH_H_
#define MOZART_CORE_TASK_GRAPH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/annotation.h"
#include "core/func.h"
#include "core/splitter.h"
#include "core/value.h"

namespace mz {

using SlotId = std::uint32_t;
inline constexpr SlotId kInvalidSlot = static_cast<SlotId>(-1);

// Lazy merge-on-get (stage-boundary piece passing with a live Future): the
// executor elided this slot's boundary merge and left the ordered pieces
// here instead; the first observer — `Future::get()` resolving the slot, or
// a later capture that references it — performs the merge then. The
// splitter handle pins the registration against replacement.
struct DeferredMergeState {
  std::shared_ptr<const Splitter> splitter;
  Value original;                      // empty for produced values
  std::vector<Value> pieces;           // global element order
  std::vector<std::int64_t> params;
};

// The planner reads slots only through FingerprintRange's SlotFacts
// (plan_cache.h); `deferred` is resolved before a slot re-enters capture.
struct Slot {
  SlotId id = kInvalidSlot;
  Value value;              // current full value (empty while pending if produced by a node)
  bool pending = false;     // will be (re)written by an unexecuted node
  bool external = false;    // aliases user memory (pointer-keyed slots)
  int external_refs = 0;    // live Future handles observing this slot
  std::shared_ptr<DeferredMergeState> deferred;  // lazy merge-on-get pieces
};

// Merges and installs `slot.deferred` if present (no-op otherwise).
// Callers: Future resolution and capture-time binding (runtime.cc).
void ResolveDeferredMerge(Slot& slot);

struct Node {
  std::shared_ptr<const Annotation> ann;
  std::shared_ptr<const FuncBase> fn;
  std::vector<SlotId> args;      // one per function argument
  SlotId ret = kInvalidSlot;     // kInvalidSlot for void functions
};

// Dependency edge kinds, exposed for introspection and tests.
struct Edge {
  enum class Kind { kRaw, kWar, kWaw };
  int from = 0;  // node index
  int to = 0;    // node index
  Kind kind = Kind::kRaw;
};

class TaskGraph {
 public:
  // Returns the slot aliased to `ptr`, creating it on first sight. The
  // provided value seeds the slot (first capture wins).
  SlotId SlotForPointer(const void* ptr, const Value& value);

  // Creates a fresh slot holding `value` (by-value arguments).
  SlotId NewValueSlot(const Value& value);

  // Creates a fresh, pending slot (return values).
  SlotId NewPendingSlot();

  Slot& slot(SlotId id);
  const Slot& slot(SlotId id) const;
  std::size_t num_slots() const { return slots_.size(); }

  // Appends a node; marks mut/ret slots pending. Returns the node index.
  int AddNode(std::shared_ptr<const Annotation> ann, std::shared_ptr<const FuncBase> fn,
              std::vector<SlotId> args, bool has_ret);

  const std::vector<Node>& nodes() const { return nodes_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  // Nodes in [first_unexecuted, num_nodes) await evaluation.
  int first_unexecuted() const { return first_unexecuted_; }
  void MarkExecuted(int end_node);

  // True if the slot is read or mutated by any node in (after_node, end).
  bool UsedAfter(SlotId id, int after_node) const;
  bool MutatedAfter(SlotId id, int after_node) const;

  // Dependency edges over all captured nodes (for tests / debugging).
  std::vector<Edge> ComputeEdges() const;

  // Drops all nodes and slots. Invalidates outstanding SlotIds; callers
  // (Runtime) must ensure no Futures are alive.
  void Clear();

 private:
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<const void*, SlotId> pointer_slots_;
  std::vector<Node> nodes_;
  int first_unexecuted_ = 0;
};

}  // namespace mz

#endif  // MOZART_CORE_TASK_GRAPH_H_
