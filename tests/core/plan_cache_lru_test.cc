// Property-style battery for the PlanCache's recency eviction and byte
// accounting: randomized insert/lookup/evict sequences are checked, step by
// step, against an executable reference model (a map plus a recency list).
// The invariants pinned here:
//   * entry and byte accounting never drift from the model's (and the byte
//     budget is never exceeded while more than one entry is resident);
//   * eviction order is exactly the model's (LRU promotes on hit and on
//     refresh);
//   * a full-fingerprint mismatch (same 64-bit hash, different words) never
//     serves a cached plan — collisions chain, they do not alias;
//   * hit/miss counters agree with the model after every interleaving.
//
// The model-equality batteries run the production allocator-true accounting.
// True footprints are platform-dependent (malloc_usable_size can hand out a
// larger block than requested), so the reference model does not recompute
// them: it charges each entry what that Insert's outcome reported, and the
// batteries check that residency, evictions and counters then agree byte
// for byte. Conservation laws over outcomes are pinned separately below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <random>
#include <vector>

#include "core/plan_cache.h"

namespace mz {
namespace {

// Payload identity: a plan with `id` empty stages. If the cache ever serves
// the wrong entry for a key, the stage count exposes it.
Plan PayloadPlan(int id) {
  Plan p;
  p.stages.resize(static_cast<std::size_t>(id));
  return p;
}

// Key universe with forced hash collisions: many ids share each bucket hash,
// so lookups must chain on the full word stream.
PlanKey KeyFor(int id, int hash_buckets) {
  PlanKey key;
  key.hash = static_cast<std::uint64_t>(id % hash_buckets);
  key.words = {static_cast<std::uint64_t>(id), 0xabcdefULL};
  return key;
}

// Reference model: same semantics as PlanCache, written the obvious way.
class ModelCache {
 public:
  explicit ModelCache(const PlanCacheOptions& opts) : opts_(opts) {}

  // Every lookup hit and refresh promotes the entry to most recent.
  std::optional<int> Lookup(const PlanKey& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->key == key) {
        ++hits_;
        int payload = it->payload;
        order_.splice(order_.end(), order_, it);
        return payload;
      }
    }
    ++misses_;
    return std::nullopt;
  }

  // `entry_bytes` is the footprint the real cache reported for this insert.
  void Insert(const PlanKey& key, int payload, std::size_t entry_bytes) {
    bool refreshed = false;
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->key == key) {
        bytes_ += entry_bytes;
        bytes_ -= it->bytes;
        it->payload = payload;
        it->bytes = entry_bytes;
        order_.splice(order_.end(), order_, it);  // a refresh is a touch
        refreshed = true;
        break;
      }
    }
    if (!refreshed) {
      order_.push_back(Entry{key, payload, entry_bytes});
      bytes_ += entry_bytes;
    }
    auto it = order_.begin();
    while (it != order_.end() &&
           (order_.size() > opts_.max_entries ||
            (opts_.max_bytes > 0 && bytes_ > opts_.max_bytes))) {
      if (it->key == key) {
        ++it;  // the just-inserted entry is never its own victim; keep walking
        continue;
      }
      bytes_ -= it->bytes;
      ++evictions_;
      it = order_.erase(it);
    }
  }

  bool Contains(const PlanKey& key) const {
    for (const Entry& e : order_) {
      if (e.key == key) {
        return true;
      }
    }
    return false;
  }

  std::size_t size() const { return order_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    PlanKey key;
    int payload = 0;
    std::size_t bytes = 0;
  };
  PlanCacheOptions opts_;
  std::list<Entry> order_;  // front = next victim, back = most recent
  std::size_t bytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

struct PropertyConfig {
  const char* name;
  PlanCacheOptions opts;
  int universe;      // distinct keys
  int hash_buckets;  // forced-collision bucket count
};

void RunRandomizedTrace(const PropertyConfig& cfg, std::uint32_t seed) {
  SCOPED_TRACE(testing::Message() << cfg.name << " seed=" << seed);
  PlanCache cache(cfg.opts);
  ModelCache model(cfg.opts);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> id_dist(0, cfg.universe - 1);
  std::uniform_int_distribution<int> payload_dist(1, 40);
  std::uniform_int_distribution<int> op_dist(0, 99);

  constexpr int kOps = 3000;
  for (int op = 0; op < kOps; ++op) {
    const int id = id_dist(rng);
    const PlanKey key = KeyFor(id, cfg.hash_buckets);
    if (op_dist(rng) < 55) {
      std::shared_ptr<const Plan> got = cache.Lookup(key);
      std::optional<int> want = model.Lookup(key);
      ASSERT_EQ(got != nullptr, want.has_value()) << "op " << op << " id " << id;
      if (got != nullptr) {
        // Payload identity: a hit must return the plan inserted under this
        // exact fingerprint, never a hash-colliding neighbour's.
        ASSERT_EQ(static_cast<int>(got->stages.size()), *want) << "op " << op << " id " << id;
      }
    } else {
      const int payload = payload_dist(rng);
      const PlanCacheInsertOutcome out = cache.Insert(key, PayloadPlan(payload), {});
      model.Insert(key, payload, out.inserted_bytes);
    }
    // Byte/entry accounting must track the model exactly, op by op.
    ASSERT_EQ(cache.size(), model.size()) << "op " << op;
    ASSERT_EQ(cache.bytes(), model.bytes()) << "op " << op;
    if (cfg.opts.max_bytes > 0 && cache.size() > 1) {
      ASSERT_LE(cache.bytes(), cfg.opts.max_bytes) << "op " << op;
    }
    ASSERT_LE(cache.size(), cfg.opts.max_entries) << "op " << op;
  }

  EXPECT_EQ(cache.hits(), model.hits());
  EXPECT_EQ(cache.misses(), model.misses());
  EXPECT_EQ(cache.evictions(), model.evictions());
  // Final residency must match entry for entry (Contains does not perturb
  // recency, so the sweep cannot invalidate the comparison it performs).
  for (int id = 0; id < cfg.universe; ++id) {
    const PlanKey key = KeyFor(id, cfg.hash_buckets);
    EXPECT_EQ(cache.Contains(key), model.Contains(key)) << "id " << id;
  }
}

TEST(PlanCacheLruPropertyTest, EntryCappedLruMatchesModel) {
  PropertyConfig cfg{"entry-capped LRU",
                     PlanCacheOptions{.max_entries = 8, .max_bytes = 0},
                     /*universe=*/24, /*hash_buckets=*/5};
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    RunRandomizedTrace(cfg, seed);
  }
}

TEST(PlanCacheLruPropertyTest, ByteCappedLruMatchesModel) {
  // Payloads measure a few hundred bytes to a few KB; a budget of ~6 KB
  // holds only a handful of entries, so eviction runs constantly.
  PropertyConfig cfg{"byte-capped LRU",
                     PlanCacheOptions{.max_entries = 1024, .max_bytes = 6 * 1024},
                     /*universe=*/24, /*hash_buckets=*/5};
  for (std::uint32_t seed : {7u, 8u, 9u}) {
    RunRandomizedTrace(cfg, seed);
  }
}

TEST(PlanCacheLruPropertyTest, DualCapMatchesModel) {
  PropertyConfig cfg{"entry+byte-capped LRU",
                     PlanCacheOptions{.max_entries = 6, .max_bytes = 8 * 1024},
                     /*universe=*/32, /*hash_buckets=*/4};
  for (std::uint32_t seed : {11u, 12u, 13u}) {
    RunRandomizedTrace(cfg, seed);
  }
}

// ---- targeted invariants the random traces also cover, pinned explicitly ----

TEST(PlanCacheLruTest, LookupPromotesSoHotEntrySurvivesColdStream) {
  PlanCache cache(PlanCacheOptions{.max_entries = 3});
  const PlanKey hot = KeyFor(0, 1000);
  cache.Insert(hot, PayloadPlan(1), {});
  // Stream cold keys through the cache, touching the hot key between every
  // insertion. Under LRU the hot entry is always MRU when eviction runs.
  for (int id = 1; id <= 20; ++id) {
    ASSERT_NE(cache.Lookup(hot), nullptr) << "hot key evicted at id " << id;
    cache.Insert(KeyFor(id, 1000), PayloadPlan(2), {});
  }
  EXPECT_TRUE(cache.Contains(hot));
}

TEST(PlanCacheLruTest, ByteBudgetEvictsByRecency) {
  // Probe each entry's true footprint, then build a budget that fits any two
  // of the three entries but never all three (half the smallest entry of
  // slack either way absorbs allocator rounding).
  PlanCache probe(PlanCacheOptions{.max_entries = 100});
  std::size_t sizes[3];
  for (int id = 0; id < 3; ++id) {
    sizes[id] = probe.Insert(KeyFor(id, 8), PayloadPlan(4), {}).inserted_bytes;
  }
  const std::size_t budget =
      std::max({sizes[0] + sizes[1], sizes[0] + sizes[2], sizes[1] + sizes[2]}) +
      std::min({sizes[0], sizes[1], sizes[2]}) / 2;
  PlanCache cache(PlanCacheOptions{.max_entries = 100, .max_bytes = budget});
  const std::size_t b0 = cache.Insert(KeyFor(0, 8), PayloadPlan(4), {}).inserted_bytes;
  const std::size_t b1 = cache.Insert(KeyFor(1, 8), PayloadPlan(4), {}).inserted_bytes;
  EXPECT_EQ(cache.bytes(), b0 + b1);
  ASSERT_NE(cache.Lookup(KeyFor(0, 8)), nullptr);  // 0 becomes MRU
  const std::size_t b2 =
      cache.Insert(KeyFor(2, 8), PayloadPlan(4), {}).inserted_bytes;  // must evict 1, not 0
  EXPECT_TRUE(cache.Contains(KeyFor(0, 8)));
  EXPECT_FALSE(cache.Contains(KeyFor(1, 8)));
  EXPECT_TRUE(cache.Contains(KeyFor(2, 8)));
  EXPECT_EQ(cache.bytes(), b0 + b2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.evicted_bytes(), static_cast<std::int64_t>(b1));
}

TEST(PlanCacheLruTest, OversizedEntryStaysResidentAlone) {
  PlanCache probe(PlanCacheOptions{.max_entries = 100});
  const std::size_t small = probe.Insert(KeyFor(0, 8), PayloadPlan(1), {}).inserted_bytes;
  PlanCache cache(PlanCacheOptions{.max_entries = 100, .max_bytes = small});
  cache.Insert(KeyFor(0, 8), PayloadPlan(1), {});
  EXPECT_EQ(cache.size(), 1u);
  // A template bigger than the whole budget evicts everyone else but is
  // never its own victim: the cache degrades to capacity one, not zero.
  cache.Insert(KeyFor(1, 8), PayloadPlan(30), {});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(KeyFor(1, 8)));
  EXPECT_GT(cache.bytes(), small);
}

TEST(PlanCacheLruTest, CollisionNeverAliasesAcrossEviction) {
  // Two keys in the same bucket; evict one; the survivor must still be
  // found by full fingerprint and the evicted one must miss, not alias.
  PlanCache cache(PlanCacheOptions{.max_entries = 2});
  PlanKey a{7, {1, 1}};
  PlanKey b{7, {2, 2}};
  PlanKey c{7, {3, 3}};
  cache.Insert(a, PayloadPlan(1), {});
  cache.Insert(b, PayloadPlan(2), {});
  cache.Insert(c, PayloadPlan(3), {});  // evicts a (LRU)
  EXPECT_EQ(cache.Lookup(a), nullptr);
  ASSERT_NE(cache.Lookup(b), nullptr);
  EXPECT_EQ(cache.Lookup(b)->stages.size(), 2u);
  ASSERT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.Lookup(c)->stages.size(), 3u);
}

// ---- allocator-true accounting: conservation over Insert outcomes ----
// True footprints depend on the platform allocator, so these assert
// conservation laws over Insert outcomes rather than exact byte values.

// A plan whose containers carry real heap payload (params, args).
Plan HeapyPlan(int stages, int params_per_buf) {
  Plan p;
  p.stages.resize(static_cast<std::size_t>(stages));
  for (Stage& s : p.stages) {
    s.buffers.resize(2);
    for (StageBuffer& b : s.buffers) {
      b.params.assign(static_cast<std::size_t>(params_per_buf), 7);
    }
    s.funcs.resize(1);
    s.funcs[0].args.resize(2);
  }
  return p;
}

TEST(PlanCacheTrueBytesTest, OutcomeArithmeticConservesResidency) {
  PlanCache cache(PlanCacheOptions{.max_entries = 64});
  std::size_t sum = 0;
  std::vector<std::size_t> per_entry(12, 0);
  for (int id = 0; id < 12; ++id) {
    PlanCacheInsertOutcome out =
        cache.Insert(KeyFor(id, 4), HeapyPlan(1 + id % 3, 4 * (1 + id % 5)), {});
    EXPECT_GT(out.inserted_bytes, 0u);
    EXPECT_EQ(out.evicted_entries, 0u);  // 12 entries fit in 64 slots
    per_entry[static_cast<std::size_t>(id)] = out.inserted_bytes;
    sum += out.inserted_bytes;
    // The outcome's residency is the cache's, taken under the insert lock,
    // and residency is exactly the sum of what the inserts reported.
    EXPECT_EQ(out.resident_bytes, cache.bytes());
    EXPECT_EQ(cache.bytes(), sum);
  }
  // A refresh swaps one entry's footprint: out with what its original
  // insert reported, in with what the refresh reports. No eviction counters
  // move.
  PlanCacheInsertOutcome refresh = cache.Insert(KeyFor(3, 4), HeapyPlan(3, 40), {});
  EXPECT_EQ(refresh.evicted_entries, 0u);
  EXPECT_EQ(cache.bytes(), sum - per_entry[3] + refresh.inserted_bytes);
  EXPECT_EQ(refresh.resident_bytes, cache.bytes());
}

TEST(PlanCacheTrueBytesTest, ByteBudgetHoldsUnderTrueAccounting) {
  // Size the budget from a probe insert so the test is allocator-portable:
  // it must hold ~3 entries' true footprint, then never exceed the budget
  // while more than one entry is resident.
  PlanCache probe(PlanCacheOptions{.max_entries = 4});
  const std::size_t one = probe.Insert(KeyFor(0, 4), HeapyPlan(2, 8), {}).inserted_bytes;
  ASSERT_GT(one, 0u);
  PlanCache cache(PlanCacheOptions{.max_entries = 100, .max_bytes = 3 * one + one / 2});
  for (int id = 0; id < 20; ++id) {
    cache.Insert(KeyFor(id, 4), HeapyPlan(2, 8), {});
    if (cache.size() > 1) {
      EXPECT_LE(cache.bytes(), 3 * one + one / 2) << "id " << id;
    }
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LE(cache.size(), 3u + 1u);
}

TEST(PlanCacheTrueBytesTest, CapacitySlackIsCharged) {
  // Two structurally identical plans, one carrying reserved-but-unused
  // vector capacity. A structural count cannot tell them apart; the
  // allocator walk must charge the slack.
  Plan lean = HeapyPlan(1, 4);
  Plan padded = HeapyPlan(1, 4);
  padded.stages.reserve(64);            // survives the move into the cache
  padded.stages[0].buffers[0].params.reserve(512);
  const PlanKey k0 = KeyFor(0, 4);
  const PlanKey k1 = KeyFor(1, 4);
  EXPECT_GT(CountPlanHeapBytes(k1.words, padded, {}),
            CountPlanHeapBytes(k0.words, lean, {}));

  PlanCache cache(PlanCacheOptions{.max_entries = 8});
  const std::size_t lean_bytes = cache.Insert(k0, std::move(lean), {}).inserted_bytes;
  const std::size_t padded_bytes = cache.Insert(k1, std::move(padded), {}).inserted_bytes;
  EXPECT_GT(padded_bytes, lean_bytes);
}

TEST(PlanCacheLruTest, ClearResetsResidencyButKeepsCumulativeCounters) {
  PlanCache cache(PlanCacheOptions{.max_entries = 2});
  cache.Insert(KeyFor(0, 8), PayloadPlan(1), {});
  cache.Insert(KeyFor(1, 8), PayloadPlan(1), {});
  cache.Insert(KeyFor(2, 8), PayloadPlan(1), {});  // one eviction
  (void)cache.Lookup(KeyFor(2, 8));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.evictions(), 1);
}

}  // namespace
}  // namespace mz
