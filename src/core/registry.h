// Registry of split types, their constructors, and their splitters.
//
// An annotator integrates a library by (1) defining split types and their
// constructors, (2) registering a Splitter per (split type, C++ type) pair,
// and (3) optionally registering a *default* split type per C++ type — the
// fallback Mozart uses when type inference cannot pin a generic down (§5.1).
//
// The registry is process-global, mirroring the paper's design where the
// `annotate` tool packages the splitting API into a shared library loaded
// once per process. The design is read-mostly: registration happens during
// library initialization (each annotated library's RegisterSplits is
// once-guarded), after which many concurrent sessions issue lookups. A
// shared_mutex gives registration exclusive access while lookups — the
// planner and executor hot path — take shared locks and proceed in parallel.
//
// Every mutation bumps a monotonic version counter. The plan cache keys on
// it (plan_cache.h): cached plans bake in default split types and splitter
// traits, so any registry change must invalidate them.
#ifndef MOZART_CORE_REGISTRY_H_
#define MOZART_CORE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "core/split_type.h"
#include "core/splitter.h"
#include "core/value.h"

namespace mz {

// Computes a split type's parameters from captured function arguments
// (§3.2 "Split Type Constructors"). Receives the Values selected by the SA's
// ctor-argument list. Returns nullopt when a parameter depends on a value
// that is still pending (empty Value) — the planner then defers parameter
// computation to execution time ("late" constructor).
using CtorParams = std::optional<std::vector<std::int64_t>>;
using SplitTypeCtor = std::function<CtorParams(std::span<const Value> args)>;

// Computes a default split type's parameters directly from a full value at
// execution time (used for defaults and deferred constructors).
using LateCtor = std::function<std::vector<std::int64_t>(const Value& value)>;

class Registry {
 public:
  static Registry& Global();

  // Defines a split type. Idempotent: redefining with the same name replaces
  // the ctor (tests rely on this). Returns the interned name id.
  InternedId DefineSplitType(std::string_view name, SplitTypeCtor ctor, LateCtor late_ctor);

  // Registers the splitter used for values of C++ type `type` split with
  // split type `name`.
  void AddSplitter(std::string_view name, std::type_index type, std::shared_ptr<Splitter> splitter);

  // Registers the fallback split type for a C++ type: when inference bottoms
  // out, values of this type are split with `name`, with parameters computed
  // by the split type's late constructor.
  void SetDefaultSplitType(std::type_index type, std::string_view name);

  // Lookups. Return nullptr / nullopt when absent.
  const Splitter* FindSplitter(InternedId name, std::type_index type) const;
  bool HasSplitType(InternedId name) const;

  // True when every splitter registered under `name` is merge-only (or none
  // is registered at all): such a stream cannot be consumed piecewise, so
  // the planner's carry-over analysis must materialize it at the boundary.
  bool SplitTypeIsMergeOnly(InternedId name) const;

  // True when at least one splitter is registered under `name` and every one
  // declares incremental_merge: a previous merge result may be folded
  // together with new pieces (streaming accumulation, stream.h). False for
  // unknown or splitter-less types — the conservative answer, since folding
  // through a non-incremental merge silently double-counts.
  bool SplitTypeSupportsIncrementalMerge(InternedId name) const;

  // Splitter-declared per-element footprint of this split type's streams: the
  // max over its splitters of WidthForParams(params) — exact for types whose
  // width depends on their parameters (MatrixSplit rows are `cols * 8` bytes)
  // — or of traits().element_width when `params` is empty; 0 when unknown.
  // Feeds the planner's footprint model for produced values and carried pieces.
  std::int64_t ElementWidthForSplitType(InternedId name,
                                        std::span<const std::int64_t> params = {}) const;

  // Like FindSplitter, but returns the owning handle. Deferred merges
  // (lazy merge-on-get, task_graph.h) outlive the evaluation that resolved
  // the splitter, so they must pin it against re-registration.
  std::shared_ptr<const Splitter> FindSplitterShared(InternedId name, std::type_index type) const;

  // Info() of `value` under its C++ type's default split type (late ctor +
  // Info only, so cheap and pure), or nullopt when no default/splitter
  // applies or Info throws.
  std::optional<RuntimeInfo> ProbeRuntimeInfo(const Value& value) const;

  // Runs the split type's constructor; nullopt = deferred.
  CtorParams RunCtor(InternedId name, std::span<const Value> args) const;

  // Runs the split type's late constructor against a full value.
  std::vector<std::int64_t> RunLateCtor(InternedId name, const Value& value) const;

  // Default split type name for a C++ type; nullopt if none registered.
  std::optional<InternedId> DefaultSplitTypeFor(std::type_index type) const;

  // The paper's `annotate` tool checks that a split type is always associated
  // with the same concrete type (§7.1); exposed for the pedantic runtime.
  std::vector<std::type_index> TypesForSplitType(InternedId name) const;

  // Monotonic counter bumped by every registration call. Plan-cache entries
  // record the version they were built against; a mismatch is a miss.
  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  struct SplitTypeDef {
    SplitTypeCtor ctor;
    LateCtor late_ctor;
    std::unordered_map<std::type_index, std::shared_ptr<Splitter>> splitters;
  };

  mutable std::shared_mutex mu_;
  std::atomic<std::uint64_t> version_{0};
  std::unordered_map<InternedId, SplitTypeDef> types_;
  std::unordered_map<std::type_index, InternedId> defaults_;
};

// Convenience: registers a TypedSplitter<T> for (name, T).
template <typename T>
void RegisterTypedSplitter(Registry& registry, std::string_view name,
                           typename TypedSplitter<T>::InfoFn info,
                           typename TypedSplitter<T>::SplitFn split,
                           typename TypedSplitter<T>::MergeFn merge,
                           SplitterTraits traits = {},
                           typename TypedSplitter<T>::WidthFn width = nullptr) {
  registry.AddSplitter(name, std::type_index(typeid(T)),
                       std::make_shared<TypedSplitter<T>>(info, split, merge, traits, width));
}

// Splitter of a merge-only split type (reductions, partial aggregations):
// sets traits.merge_only; Info and Split throw mz::Error naming the type.
std::shared_ptr<Splitter> MakeMergeOnlySplitter(std::string_view name, MergeFunction merge,
                                                SplitterTraits traits);

// Convenience: registers a merge-only splitter for (name, T).
template <typename T>
void RegisterMergeOnlySplitter(Registry& registry, std::string_view name, MergeFunction merge,
                               SplitterTraits traits = {}) {
  registry.AddSplitter(name, std::type_index(typeid(T)),
                       MakeMergeOnlySplitter(name, merge, traits));
}

}  // namespace mz

#endif  // MOZART_CORE_REGISTRY_H_
