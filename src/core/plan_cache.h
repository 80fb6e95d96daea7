// Plan caching for repeated dataflows.
//
// Weld-style lazy runtimes pay a planning cost on every evaluation; for
// serving workloads the same pipeline is evaluated over and over (often with
// fresh data in the same shape), so Mozart amortizes `Planner::Plan` across
// invocations by keying plans on the *structure* of the captured node range:
//
//   * the identity of each node's annotation and wrapped function,
//   * arity and the slot-aliasing pattern among arguments and returns
//     (canonicalized to first-appearance order, never raw pointers),
//   * per-slot planning inputs: pending / materialized, external aliasing,
//     live Future handles, and the held C++ type,
//   * split-type constructor results (so `vdAdd(n=1000, ...)` and
//     `vdAdd(n=2000, ...)` key differently — plans bake ctor parameters in),
//   * the registry version and the pipelining flag.
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
#include <span>
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

// Output of fingerprinting a node range [first, end):
//  * key        — structural key (see file comment for what it covers);
//  * canon_slots — canonical local id -> actual SlotId for this range, in
//    first-appearance order over (args..., ret) of each node;
//  * pins       — shared_ptrs to every annotation/function whose pointer
//    identity the key contains (stored with the cache entry);
//  * registry_version — the version the key was computed against. Callers
//    must re-check it before inserting a plan built afterwards: a
//    registration between fingerprint and plan would otherwise cache a
//    new-registry plan under an old-version key.
struct RangeFingerprint {
  PlanKey key;
  std::vector<SlotId> canon_slots;
  std::vector<std::shared_ptr<const void>> pins;
  std::uint64_t registry_version = 0;
};

// Fingerprints nodes [first, end). Runs concrete split-type constructors
// (they must be pure and cheap — see docs/ANNOTATING.md) and reads
// registry.version(), so a registry change invalidates all prior keys.
RangeFingerprint FingerprintRange(const TaskGraph& graph, const Registry& registry, int first,
                                  int end, bool pipeline);

// Rewrites a freshly built plan for [first_node, ...) into a reusable
// template: node indices relative, buffer slots replaced by canonical ids.
Plan MakePlanTemplate(const Plan& plan, std::span<const SlotId> canon_slots, int first_node);

// Instantiates a template against the current graph range whose canonical
// slot map is `canon_slots` (from FingerprintRange of that same range).
Plan InstantiatePlan(const Plan& tmpl, std::span<const SlotId> canon_slots, int first_node);

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
