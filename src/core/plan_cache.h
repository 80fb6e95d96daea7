// Plan caching for repeated dataflows.
//
// Weld-style lazy runtimes pay a planning cost on every evaluation; for
// serving workloads the same pipeline is evaluated over and over (often with
// fresh data in the same shape), so Mozart amortizes `Planner::Build` across
// invocations by keying plans on the *structure* of the captured node range.
//
// FingerprintRange is the one plan-time read of a range's slots. In one pass
// it records every value-derived fact the planner reads — per distinct slot
// its flags, held C++ type and default-split Info() probe; per concrete
// split expression its constructor result — and hashes exactly those
// records, together with each node's annotation identity (which fixes its
// split expressions) and function identity, arity, slot-aliasing pattern
// (canonical first-appearance ids, never raw pointers), the registry version
// and the pipelining flag. The planner reads values only through these records, so equal keys
// give equal plans by construction.
//
// Data pointers and value contents are deliberately NOT part of the key:
// evaluating the same pipeline over different buffers of the same size is
// the warm-path hit the cache exists for.
//
// A cached plan is stored as a *template*: node indices are relative to the
// start of the planned range and buffer slots are canonical local ids. On a
// hit the template is instantiated against the current graph by rewriting
// those ids through the range's canonical slot map. Entries pin the
// annotation/function objects they fingerprinted so pointer identity cannot
// be recycled while the entry lives.
//
// The cache is bounded two ways: an entry count and a byte budget over each
// resident entry's allocator-true footprint (CountPlanHeapBytes — the actual
// heap blocks behind the stored entry, malloc_usable_size where the platform
// has it, so the budget honestly bounds memory when thousands of templates
// are resident). Eviction is by recency: lookups and refreshes promote the
// entry to most-recently-used, and the victim is always the least-recently-
// used entry. Serving working sets are skewed — a few hot pipelines plus a
// stream of one-offs — and LRU keeps the hot templates resident where
// insertion-order eviction lets the one-off stream push them out (warm hit
// rate 0.94 vs 0.87: concurrency/capped_cache/*/warm_hit_rate, BENCH_PR10).
//
// PlanCache is thread-safe. Lookup mutates recency, so every operation takes
// one exclusive mutex, and the hit/miss counters are updated under that same
// lock — the counters can never disagree with the lookups that produced
// them, even under concurrent sessions. Lookup compares the full
// fingerprint, not just the 64-bit hash, so hash collisions degrade to
// chained compares — never to a wrong plan.
#ifndef MOZART_CORE_PLAN_CACHE_H_
#define MOZART_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "core/planner.h"
#include "core/registry.h"
#include "core/task_graph.h"

namespace mz {

// Structural key of one planned node range: a 64-bit bucket hash plus the
// full fingerprint word stream it was derived from.
struct PlanKey {
  std::uint64_t hash = 0;
  std::vector<std::uint64_t> words;

  bool operator==(const PlanKey& other) const {
    return hash == other.hash && words == other.words;
  }
};

// What the planner may read about one slot of the range.
struct SlotFacts {
  SlotId id = kInvalidSlot;             // the graph slot (the key holds canonical ids)
  bool pending = false;
  bool external = false;                // aliases user memory
  bool observed = false;                // pinned by a live Future handle
  std::optional<std::type_index> type;  // held value's C++ type; empty while pending
  std::optional<RuntimeInfo> probe;     // Info() under the type's default split
};

// The one read of nodes [first, end) and the key over it.
struct RangeFingerprint {
  PlanKey key;  // over exactly the records below (file comment)
  int first = 0;
  int end = 0;
  bool pipeline = true;
  std::unordered_map<SlotId, std::uint32_t> canon_ids;  // SlotId -> canonical id
  std::vector<SlotFacts> slots;        // by canonical id: first-appearance order
  std::vector<CtorParams> ctors;       // args.size() + 1 entries per node
  std::vector<std::size_t> ctor_base;  // node - first -> its first entry in ctors
  // Annotations/functions whose pointer identity the key contains.
  std::vector<std::shared_ptr<const void>> pins;
  std::uint64_t registry_version = 0;  // re-check before caching a plan built later

  const SlotFacts& slot(SlotId s) const { return slots[canon_ids.at(s)]; }
  // Constructor result of node `n`'s argument `arg`; arg == args.size() is
  // the return. Empty for non-concrete expressions.
  const CtorParams& ctor(int n, std::size_t arg) const {
    return ctors[ctor_base[static_cast<std::size_t>(n - first)] + arg];
  }
};

// Runs each concrete split-type constructor and each slot's default-split
// probe once (both must be pure and cheap — see docs/ANNOTATING.md).
RangeFingerprint FingerprintRange(const TaskGraph& graph, const Registry& registry, int first,
                                  int end, bool pipeline);

// Rewrites a freshly built plan of `range` into a reusable template: node
// indices relative, buffer slots replaced by canonical ids.
Plan MakePlanTemplate(const Plan& plan, const RangeFingerprint& range);

// Instantiates a template against the graph range `range` read.
Plan InstantiatePlan(const Plan& tmpl, const RangeFingerprint& range);

// Allocator-true footprint of one resident entry: walks every heap block the
// stored key words, template, and pins own and sums what the allocator
// actually carved out for them (malloc_usable_size under glibc — which sees
// capacity slack AND size-class rounding — capacity arithmetic elsewhere),
// plus fixed bookkeeping for the Entry/recency/bucket nodes. This is what
// the byte budget charges.
std::size_t CountPlanHeapBytes(const std::vector<std::uint64_t>& key_words,
                               const Plan& plan_template,
                               const std::vector<std::shared_ptr<const void>>& pins);

struct PlanCacheOptions {
  std::size_t max_entries = 1024;
  // Byte budget over the accounted footprint of resident entries; 0 = no
  // byte bound (entry count only). The entry just inserted is never its own
  // victim, so one template larger than the whole budget stays resident
  // alone rather than thrashing.
  std::size_t max_bytes = 0;
};

// What one Insert displaced; the runtime folds this into EvalStats so
// eviction pressure is visible per session (plan_cache_evictions /
// plan_cache_bytes_*).
struct PlanCacheInsertOutcome {
  std::size_t inserted_bytes = 0;
  std::size_t evicted_entries = 0;
  std::size_t evicted_bytes = 0;
  // Accounted bytes resident after this insert's evictions settled (the
  // whole cache, not this entry). Feeds EvalStats::plan_cache_true_bytes.
  std::size_t resident_bytes = 0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t max_entries = 1024);
  explicit PlanCache(const PlanCacheOptions& opts);

  // Returns the cached template (shared, immutable) or null. Full-
  // fingerprint compare; promotes the entry and counts a hit/miss
  // under the same lock as the lookup itself. Handing out a shared_ptr
  // keeps the critical section O(1): instantiation copies outside the
  // lock, and a template stays valid even if it is evicted mid-use.
  std::shared_ptr<const Plan> Lookup(const PlanKey& key);

  // Inserts (or refreshes) the template for `key`, then evicts by recency
  // until both the entry and byte budgets hold again.
  PlanCacheInsertOutcome Insert(const PlanKey& key, Plan plan_template,
                                std::vector<std::shared_ptr<const void>> pins);

  // Membership probe for tests/introspection: no counters, no promotion.
  bool Contains(const PlanKey& key) const;

  void Clear();  // drops entries and byte accounting; cumulative counters stay

  std::size_t size() const;
  std::size_t bytes() const;  // accounted footprint sum over resident entries
  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;
  std::int64_t evicted_bytes() const;

 private:
  struct Entry {
    std::uint64_t seq = 0;  // insertion id; pairs with order_ for eviction
    std::vector<std::uint64_t> words;
    std::shared_ptr<const Plan> tmpl;
    std::vector<std::shared_ptr<const void>> pins;
    std::size_t bytes = 0;
    // Position in order_ (stable across entry moves within a bucket chain).
    std::list<std::pair<std::uint64_t, std::uint64_t>>::iterator order_it;
  };

  // Requires mu_. Evicts from the recency front until budgets hold; never
  // evicts the entry with seq == keep_seq (the one just inserted).
  void EvictWhileOverBudget(std::uint64_t keep_seq, PlanCacheInsertOutcome* outcome);

  mutable std::mutex mu_;
  const PlanCacheOptions opts_;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
  // Recency order as (bucket hash, entry seq): front = next victim, back =
  // most recently used.
  std::list<std::pair<std::uint64_t, std::uint64_t>> order_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t evicted_bytes_ = 0;
};

// Process-wide cache shared by every ServingContext that does not bring its
// own (session.h).
PlanCache& GlobalPlanCache();

}  // namespace mz

#endif  // MOZART_CORE_PLAN_CACHE_H_
