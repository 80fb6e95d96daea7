// PlanCache: structural fingerprinting, hit/miss accounting, hash-collision
// safety, bounded eviction, cross-runtime template reuse, and invalidation
// when the registry changes.
#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "dataframe/annotated.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

Plan PlanWithStages(int n) {
  Plan p;
  p.stages.resize(static_cast<std::size_t>(n));
  return p;
}

TEST(PlanCacheTest, LookupMissThenInsertThenHit) {
  PlanCache cache;
  PlanKey key{42, {1, 2, 3}};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.misses(), 1);

  cache.Insert(key, PlanWithStages(2), {});
  std::shared_ptr<const Plan> got = cache.Lookup(key);
  ASSERT_TRUE(got != nullptr);
  EXPECT_EQ(got->stages.size(), 2u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, HashCollisionComparesFullFingerprint) {
  PlanCache cache;
  // Same 64-bit bucket hash, different fingerprints: must chain, not alias.
  PlanKey a{7, {1, 1, 1}};
  PlanKey b{7, {2, 2, 2}};
  cache.Insert(a, PlanWithStages(1), {});
  EXPECT_EQ(cache.Lookup(b), nullptr);

  cache.Insert(b, PlanWithStages(3), {});
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.Lookup(a), nullptr);
  ASSERT_NE(cache.Lookup(b), nullptr);
  EXPECT_EQ(cache.Lookup(a)->stages.size(), 1u);
  EXPECT_EQ(cache.Lookup(b)->stages.size(), 3u);
}

TEST(PlanCacheTest, ReinsertReplacesInPlace) {
  PlanCache cache;
  PlanKey key{9, {4, 5}};
  cache.Insert(key, PlanWithStages(1), {});
  cache.Insert(key, PlanWithStages(4), {});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(key)->stages.size(), 4u);
}

TEST(PlanCacheTest, EvictsOldestWhenFull) {
  PlanCache cache(/*max_entries=*/2);
  cache.Insert(PlanKey{1, {1}}, PlanWithStages(1), {});
  cache.Insert(PlanKey{2, {2}}, PlanWithStages(1), {});
  cache.Insert(PlanKey{3, {3}}, PlanWithStages(1), {});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(PlanKey{1, {1}}), nullptr);  // oldest evicted
  EXPECT_NE(cache.Lookup(PlanKey{2, {2}}), nullptr);
  EXPECT_NE(cache.Lookup(PlanKey{3, {3}}), nullptr);
}

TEST(PlanCacheTest, CountersStayExactUnderConcurrentLookups) {
  // Regression (PR 2 follow-up): hit/miss counters are updated under the
  // same lock as the lookup itself, so concurrent sessions can never
  // undercount — every lookup is tallied exactly once, as exactly what it
  // was.
  PlanCache cache(PlanCacheOptions{.max_entries = 64});
  const PlanKey present{1, {1}};
  const PlanKey absent{2, {2}};
  cache.Insert(present, PlanWithStages(1), {});

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        if (cache.Lookup(present) == nullptr) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        if (cache.Lookup(absent) != nullptr) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 64 == 0) {
          cache.Insert(present, PlanWithStages(1), {});  // refresh churn
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.hits(), static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(cache.misses(), static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(PlanCacheTest, ClearEmptiesTheCache) {
  PlanCache cache;
  cache.Insert(PlanKey{1, {1}}, PlanWithStages(1), {});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(PlanKey{1, {1}}), nullptr);
}

// ---- end-to-end through the runtime ----

class PlanCacheRuntimeTest : public ::testing::Test {
 protected:
  RuntimeOptions MakeOptions(PlanCache* cache) {
    RuntimeOptions opts;
    opts.num_threads = 2;
    opts.pedantic = true;
    opts.plan_cache = cache;
    return opts;
  }

  // log1p(a) + b, / b — a three-node single-stage pipeline.
  void Capture(long n, const double* a, const double* b, double* out) {
    mzvec::Log1p(n, a, out);
    mzvec::Add(n, out, b, out);
    mzvec::Div(n, out, b, out);
  }

  std::vector<double> Expected(long n, const std::vector<double>& a,
                               const std::vector<double>& b) {
    std::vector<double> want(static_cast<std::size_t>(n));
    vecmath::Log1p(n, a.data(), want.data());
    vecmath::Add(n, want.data(), b.data(), want.data());
    vecmath::Div(n, want.data(), b.data(), want.data());
    return want;
  }

  std::vector<double> Iota(long n, double start) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) {
      v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
    }
    return v;
  }
};

TEST_F(PlanCacheRuntimeTest, WarmEvaluationSkipsPlannerCounterVerified) {
  const long n = 20000;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n));
  std::vector<double> want = Expected(n, a, b);

  PlanCache cache;
  Runtime rt(MakeOptions(&cache));
  RuntimeScope scope(&rt);

  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(got, want);
  EvalStats::Snapshot cold = rt.stats().Take();
  EXPECT_EQ(cold.plans_built, 1);
  EXPECT_EQ(cold.plan_cache_misses, 1);
  EXPECT_EQ(cold.plan_cache_hits, 0);

  // Same pipeline, same buffers, captured again: structurally identical, so
  // the cached template must be reused and Planner::Build must NOT run.
  std::fill(got.begin(), got.end(), 0.0);
  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(got, want);
  EvalStats::Snapshot warm = rt.stats().Take();
  EXPECT_EQ(warm.plans_built, 1) << "warm evaluation re-planned";
  EXPECT_EQ(warm.plan_cache_hits, 1);
  EXPECT_EQ(warm.plan_cache_misses, 1);
  EXPECT_EQ(cache.hits(), 1);
}

TEST_F(PlanCacheRuntimeTest, DifferentSizeIsADifferentKey) {
  const long n1 = 10000;
  const long n2 = 20000;
  std::vector<double> a = Iota(n2, 1.0);
  std::vector<double> b = Iota(n2, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n2));

  PlanCache cache;
  Runtime rt(MakeOptions(&cache));
  RuntimeScope scope(&rt);

  Capture(n1, a.data(), b.data(), got.data());
  rt.Evaluate();
  Capture(n2, a.data(), b.data(), got.data());
  rt.Evaluate();
  // Split-type constructor results (the size) are part of the key: the
  // second evaluation must not reuse the n1 plan.
  EXPECT_EQ(rt.stats().Take().plans_built, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(got, Expected(n2, a, b));
}

TEST_F(PlanCacheRuntimeTest, TemplateIsSharedAcrossRuntimes) {
  const long n = 15000;
  std::vector<double> a1 = Iota(n, 1.0);
  std::vector<double> b1 = Iota(n, 2.0);
  std::vector<double> a2 = Iota(n, 5.0);  // different data, same shape
  std::vector<double> b2 = Iota(n, 9.0);
  std::vector<double> got1(static_cast<std::size_t>(n));
  std::vector<double> got2(static_cast<std::size_t>(n));

  PlanCache cache;
  {
    Runtime rt1(MakeOptions(&cache));
    RuntimeScope scope(&rt1);
    Capture(n, a1.data(), b1.data(), got1.data());
    rt1.Evaluate();
    EXPECT_EQ(rt1.stats().Take().plans_built, 1);
  }
  {
    // A fresh runtime (fresh graph, different buffer addresses): the
    // template must instantiate against the new slots and compute correctly.
    Runtime rt2(MakeOptions(&cache));
    RuntimeScope scope(&rt2);
    Capture(n, a2.data(), b2.data(), got2.data());
    rt2.Evaluate();
    EXPECT_EQ(rt2.stats().Take().plans_built, 0) << "second runtime re-planned";
    EXPECT_EQ(rt2.stats().Take().plan_cache_hits, 1);
  }
  EXPECT_EQ(got1, Expected(n, a1, b1));
  EXPECT_EQ(got2, Expected(n, a2, b2));
}

TEST_F(PlanCacheRuntimeTest, RegistryChangeInvalidatesCachedPlans) {
  const long n = 12000;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n));

  PlanCache cache;
  Runtime rt(MakeOptions(&cache));
  RuntimeScope scope(&rt);

  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().plan_cache_hits, 1);

  // Any registration bumps the registry version; cached plans bake in ctor
  // results and defaults, so they must stop matching.
  Registry::Global().DefineSplitType("PlanCacheTestInvalidationProbe", nullptr, nullptr);

  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.plan_cache_hits, 1) << "stale plan served after registry change";
  EXPECT_EQ(s.plans_built, 2);
  EXPECT_EQ(got, Expected(n, a, b));
}

TEST_F(PlanCacheRuntimeTest, LiveFutureChangesTheKey) {
  const long n = 30000;
  std::vector<double> a(static_cast<std::size_t>(n), 0.25);

  PlanCache cache;
  Runtime rt(MakeOptions(&cache));
  RuntimeScope scope(&rt);

  // Evaluation with the reduction's Future alive (external_refs > 0) plans
  // the output slot as observed; with the Future dropped it does not. The
  // two must not share a key.
  {
    Future<double> total = mzvec::Sum(n, a.data());
    EXPECT_DOUBLE_EQ(total.get(), 0.25 * static_cast<double>(n));
  }
  { mzvec::Sum(n, a.data()); }
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().plans_built, 2);
}

TEST_F(PlanCacheRuntimeTest, EvictionCountersSurfaceInEvalStats) {
  const long n1 = 10000;
  const long n2 = 20000;
  std::vector<double> a = Iota(n2, 1.0);
  std::vector<double> b = Iota(n2, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n2));

  // Capacity one: alternating sizes evict each other on every insert.
  PlanCache cache(PlanCacheOptions{.max_entries = 1});
  Runtime rt(MakeOptions(&cache));
  RuntimeScope scope(&rt);

  Capture(n1, a.data(), b.data(), got.data());
  rt.Evaluate();
  Capture(n2, a.data(), b.data(), got.data());
  rt.Evaluate();
  Capture(n1, a.data(), b.data(), got.data());
  rt.Evaluate();

  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.plans_built, 3);
  EXPECT_EQ(s.plan_cache_evictions, 2) << "capacity-one cache must evict on each new key";
  EXPECT_GT(s.plan_cache_bytes_inserted, 0);
  EXPECT_GT(s.plan_cache_bytes_evicted, 0);
  EXPECT_LE(s.plan_cache_bytes_evicted, s.plan_cache_bytes_inserted);
  EXPECT_EQ(cache.size(), 1u);
  // Elementwise pipeline: the n2-sized expectation covers both prefixes.
  EXPECT_EQ(got, Expected(n2, a, b));
}

// ---- carry-over (piece passing) fields through the template rewrite ----

// Field-by-field plan equality, including the carry fields added by the
// stage-boundary elision analysis (planner.h). Instantiating a cached
// template must reproduce the cold plan bit-for-bit.
void ExpectPlansIdentical(const Plan& a, const Plan& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    const Stage& sa = a.stages[s];
    const Stage& sb = b.stages[s];
    EXPECT_EQ(sa.serial, sb.serial) << "stage " << s;
    EXPECT_EQ(sa.feeds_carries, sb.feeds_carries) << "stage " << s;
    EXPECT_EQ(sa.takes_carries, sb.takes_carries) << "stage " << s;
    ASSERT_EQ(sa.buffers.size(), sb.buffers.size()) << "stage " << s;
    for (std::size_t i = 0; i < sa.buffers.size(); ++i) {
      const StageBuffer& ba = sa.buffers[i];
      const StageBuffer& bb = sb.buffers[i];
      EXPECT_EQ(ba.slot, bb.slot) << "stage " << s << " buffer " << i;
      EXPECT_EQ(ba.is_broadcast, bb.is_broadcast);
      EXPECT_EQ(ba.is_halo, bb.is_halo);
      EXPECT_EQ(ba.is_input, bb.is_input);
      EXPECT_EQ(ba.is_output, bb.is_output);
      EXPECT_EQ(ba.use_default_split, bb.use_default_split);
      EXPECT_EQ(ba.params_deferred, bb.params_deferred);
      EXPECT_EQ(ba.merge_by_piece_type, bb.merge_by_piece_type);
      EXPECT_EQ(ba.carry_in, bb.carry_in) << "stage " << s << " buffer " << i;
      EXPECT_EQ(ba.carry_out, bb.carry_out) << "stage " << s << " buffer " << i;
      EXPECT_EQ(ba.deferred_merge, bb.deferred_merge) << "stage " << s << " buffer " << i;
      EXPECT_EQ(ba.elem_bytes_hint, bb.elem_bytes_hint) << "stage " << s << " buffer " << i;
      EXPECT_EQ(ba.split_name, bb.split_name);
      EXPECT_EQ(ba.params, bb.params);
    }
    ASSERT_EQ(sa.funcs.size(), sb.funcs.size()) << "stage " << s;
    for (std::size_t f = 0; f < sa.funcs.size(); ++f) {
      EXPECT_EQ(sa.funcs[f].node_index, sb.funcs[f].node_index);
      EXPECT_EQ(sa.funcs[f].ret_buffer, sb.funcs[f].ret_buffer);
      ASSERT_EQ(sa.funcs[f].args.size(), sb.funcs[f].args.size());
      for (std::size_t g = 0; g < sa.funcs[f].args.size(); ++g) {
        EXPECT_EQ(sa.funcs[f].args[g].buffer, sb.funcs[f].args[g].buffer);
      }
    }
  }
}

TEST_F(PlanCacheRuntimeTest, CarryFieldsRoundTripThroughTemplates) {
  // Build a plan with elided boundaries: a column stream crossing serial
  // stage breaks (the produce→serial→consume shape carries), then push it
  // through MakePlanTemplate/InstantiatePlan and demand an identical plan.
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("plan_cache_test.tick").Arg("k", NoSplit()).Build());

  const long n = 1000;
  std::vector<double> vals(static_cast<std::size_t>(n), 1.5);
  df::Column base = df::Column::Doubles(std::move(vals));

  Runtime rt(MakeOptions(nullptr));
  RuntimeScope scope(&rt);
  {
    Future<df::Column> cur = mzdf::ColMulC(base, 2.0);
    for (int k = 0; k < 2; ++k) {
      auto next = mzdf::ColAddC(cur, 1.0);
      tick(k);
      cur = next;
    }
    mzdf::ColSum(cur);
  }  // futures dropped: interior boundaries are elidable

  TaskGraph& graph = rt.graph_for_test();
  const int end = graph.num_nodes();
  RangeFingerprint fp = FingerprintRange(graph, Registry::Global(), 0, end, /*pipeline=*/true);
  Plan cold = Planner(graph, Registry::Global(), fp).Build();

  bool any_carry = false;
  for (const Stage& stage : cold.stages) {
    any_carry = any_carry || stage.feeds_carries || stage.takes_carries;
  }
  ASSERT_TRUE(any_carry) << "test premise: the plan must contain elided boundaries";

  Plan tmpl = MakePlanTemplate(cold, fp);
  Plan warm = InstantiatePlan(tmpl, fp);
  ExpectPlansIdentical(cold, warm);
}

TEST_F(PlanCacheRuntimeTest, FootprintAndDeferredFieldsRoundTripThroughTemplates) {
  // ISSUE 5: the per-stage batch fields (elem_bytes_hint) and the lazy
  // merge-on-get mark (deferred_merge, forced here by holding the
  // intermediate's future across planning) must survive the template
  // rewrite bit-for-bit.
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("plan_cache_test.tick3").Arg("k", NoSplit()).Build());

  const long n = 2000;
  std::vector<double> vals(static_cast<std::size_t>(n), 0.5);
  df::Column base = df::Column::Doubles(std::move(vals));

  Runtime rt(MakeOptions(nullptr));
  RuntimeScope scope(&rt);
  Future<df::Column> mid = mzdf::ColMulC(base, 2.0);  // stays live: deferred_merge
  tick(1);
  mzdf::ColSum(mzdf::ColAddC(mid, 1.0));

  TaskGraph& graph = rt.graph_for_test();
  const int end = graph.num_nodes();
  RangeFingerprint fp = FingerprintRange(graph, Registry::Global(), 0, end, /*pipeline=*/true);
  Plan cold = Planner(graph, Registry::Global(), fp).Build();

  bool any_deferred = false;
  bool any_hint = false;
  for (const Stage& stage : cold.stages) {
    for (const StageBuffer& buf : stage.buffers) {
      any_deferred = any_deferred || buf.deferred_merge;
      any_hint = any_hint || buf.elem_bytes_hint > 0;
    }
  }
  ASSERT_TRUE(any_deferred) << "test premise: the live future must defer a merge";
  ASSERT_TRUE(any_hint) << "test premise: column buffers must carry footprint hints";

  Plan tmpl = MakePlanTemplate(cold, fp);
  Plan warm = InstantiatePlan(tmpl, fp);
  ExpectPlansIdentical(cold, warm);
}

TEST_F(PlanCacheRuntimeTest, WarmHitReproducesElisionBitIdentical) {
  // End to end: the same carried pipeline through two runtimes sharing a
  // cache. The warm runtime must instantiate (no Planner::Build), elide the
  // same boundaries, and produce the identical result.
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("plan_cache_test.tick2").Arg("k", NoSplit()).Build());

  const long n = 25000;
  auto run_chain = [&](Runtime* rt, double start) {
    std::vector<double> vals(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) {
      vals[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
    }
    df::Column base = df::Column::Doubles(std::move(vals));
    RuntimeScope scope(rt);
    Future<df::Column> cur = mzdf::ColMulC(base, 2.0);
    for (int k = 0; k < 3; ++k) {
      auto next = mzdf::ColAddC(cur, 1.0);
      tick(k);
      cur = next;
    }
    return mzdf::ColSum(cur).get();
  };
  auto expected = [&](double start) {
    double sum = 0;
    for (long i = 0; i < n; ++i) {
      sum += 2.0 * (start + static_cast<double>(i)) + 3.0;
    }
    return sum;
  };

  PlanCache cache;
  std::int64_t cold_elided = 0;
  {
    Runtime rt1(MakeOptions(&cache));
    EXPECT_DOUBLE_EQ(run_chain(&rt1, 1.0), expected(1.0));
    EvalStats::Snapshot s = rt1.stats().Take();
    EXPECT_EQ(s.plans_built, 1);
    cold_elided = s.boundaries_elided;
    EXPECT_GT(cold_elided, 0);
  }
  {
    Runtime rt2(MakeOptions(&cache));
    EXPECT_DOUBLE_EQ(run_chain(&rt2, 4.0), expected(4.0));
    EvalStats::Snapshot s = rt2.stats().Take();
    EXPECT_EQ(s.plans_built, 0) << "warm runtime re-planned";
    EXPECT_EQ(s.plan_cache_hits, 1);
    EXPECT_EQ(s.boundaries_elided, cold_elided)
        << "warm instantiation elided different boundaries than cold planning";
  }
}

// out[i] = a[i] + src[0]. The two functions below differ only in how
// `src` is annotated: a halo and a "_" plan the same stages but size their
// batches differently, so one call graph annotated each way must not share
// a cached plan.
df::Column AddFirstOf(const df::Column& a, const df::Column& src) {
  std::vector<double> out(static_cast<std::size_t>(a.size()));
  for (long i = 0; i < a.size(); ++i) {
    out[static_cast<std::size_t>(i)] = a.d(i) + src.d(0);
  }
  return df::Column::Doubles(std::move(out));
}

TEST_F(PlanCacheRuntimeTest, HaloAndBroadcastAnnotationsDoNotSharePlans) {
  static const Annotated<df::Column(const df::Column&, const df::Column&)> bcast(
      AddFirstOf, AnnotationBuilder("plan_cache_test.add_first_bcast")
                      .Arg("a", Generic("S"))
                      .Arg("src", NoSplit())
                      .Returns(Generic("S"))
                      .Build());
  static const Annotated<df::Column(const df::Column&, const df::Column&)> halo(
      AddFirstOf, AnnotationBuilder("plan_cache_test.add_first_halo")
                      .Arg("a", Generic("S"))
                      .Arg("src", Halo())
                      .Returns(Generic("S"))
                      .Build());
  const long n = 3000;
  df::Column a = df::Column::Doubles(Iota(n, 1.0));
  df::Column src = df::Column::Doubles(Iota(n, 10.0));

  PlanCache cache;
  Runtime rt(MakeOptions(&cache));
  RuntimeScope scope(&rt);
  for (int round = 0; round < 2; ++round) {
    EXPECT_DOUBLE_EQ(bcast(a, src).get().d(7), 18.0);
    EXPECT_DOUBLE_EQ(halo(a, src).get().d(7), 18.0);
  }
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.plans_built, 2) << "the halo graph reused the broadcast graph's plan";
  EXPECT_EQ(s.plan_cache_hits, 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(PlanCacheRuntimeTest, NoCacheConfiguredAlwaysPlans) {
  const long n = 8000;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n));

  Runtime rt(MakeOptions(nullptr));
  RuntimeScope scope(&rt);
  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  Capture(n, a.data(), b.data(), got.data());
  rt.Evaluate();
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.plans_built, 2);
  EXPECT_EQ(s.plan_cache_hits, 0);
  EXPECT_EQ(s.plan_cache_misses, 0);
}

// ---- fingerprint soundness: the key hashes exactly what the planner reads ----

// The kinds of planner fact in which two range reads differ.
std::set<std::string> FactsThatDiffer(const RangeFingerprint& a, const RangeFingerprint& b) {
  std::set<std::string> out;
  if (a.pins.size() != b.pins.size()) {
    out.insert("nodes");
  } else {
    for (std::size_t i = 0; i < a.pins.size(); ++i) {
      if (a.pins[i] != b.pins[i]) {
        out.insert(i % 2 == 0 ? "annotation" : "function");  // pins alternate ann, fn
      }
    }
  }
  if (a.ctors != b.ctors) {
    out.insert("ctor");
  }
  if (a.slots.size() != b.slots.size()) {
    out.insert("aliasing");
    return out;
  }
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    const SlotFacts& x = a.slots[i];
    const SlotFacts& y = b.slots[i];
    if (x.pending != y.pending || x.external != y.external || x.type != y.type) {
      out.insert("flags");
    }
    if (x.observed != y.observed) {
      out.insert("external_ref");
    }
    if (x.probe.has_value() != y.probe.has_value()) {
      out.insert("probe");
    } else if (x.probe.has_value()) {
      if (x.probe->total_elements != y.probe->total_elements) {
        out.insert("probe_total");
      }
      if (x.probe->bytes_per_element != y.probe->bytes_per_element) {
        out.insert("probe_width");
      }
    }
  }
  return out;
}

// One capture, read and planned cold. The plan is kept as a template (node-
// and slot-relative), so plans of captures in different graphs compare.
struct ColdPlan {
  RangeFingerprint fp;
  Plan tmpl;
};

// Captures `pipeline()` into a fresh runtime; whatever it returns (live
// Futures) stays alive while the range is read and planned.
template <typename Pipeline>
ColdPlan PlanCold(Pipeline pipeline) {
  RuntimeOptions opts;
  opts.num_threads = 1;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  std::shared_ptr<void> live = pipeline();
  const TaskGraph& graph = rt.graph_for_test();
  ColdPlan out;
  out.fp = FingerprintRange(graph, Registry::Global(), 0, graph.num_nodes(), /*pipeline=*/true);
  out.tmpl = MakePlanTemplate(Planner(graph, Registry::Global(), out.fp).Build(), out.fp);
  return out;
}

df::Column Doubles(long n, double start) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i % 7);
  }
  return df::Column::Doubles(std::move(v));
}

// Checks both directions for one pipeline: a capture over other data of the
// same shape keys equal and plans identically, and `flipped` — the same
// pipeline with exactly the fact `fact` changed — keys differently.
void ExpectSound(const ColdPlan& base, const ColdPlan& same, const ColdPlan& flipped,
                 const std::set<std::string>& fact) {
  EXPECT_TRUE(FactsThatDiffer(base.fp, same.fp).empty());
  EXPECT_TRUE(base.fp.key == same.fp.key) << "same shape, different data: keys differ";
  ExpectPlansIdentical(base.tmpl, same.tmpl);
  EXPECT_EQ(FactsThatDiffer(base.fp, flipped.fp), fact) << "test premise: one fact flipped";
  EXPECT_FALSE(base.fp.key == flipped.fp.key) << "flipping the fact left the key unchanged";
}

TEST(FingerprintSoundnessTest, VecmathChainKeysOnConstructorParameters) {
  const long n = 4096;
  std::vector<double> a1(n + 1, 1.0), b1(n + 1, 2.0), o1(n + 1);
  std::vector<double> a2(n + 1, 3.0), b2(n + 1, 4.0), o2(n + 1);
  auto chain = [](long len, std::vector<double>& a, std::vector<double>& b,
                  std::vector<double>& out) {
    return [len, &a, &b, &out]() -> std::shared_ptr<void> {
      mzvec::Log1p(len, a.data(), out.data());
      mzvec::Add(len, out.data(), b.data(), out.data());
      mzvec::Div(len, out.data(), b.data(), out.data());
      return nullptr;
    };
  };
  ExpectSound(PlanCold(chain(n, a1, b1, o1)), PlanCold(chain(n, a2, b2, o2)),
              PlanCold(chain(n + 1, a1, b1, o1)), {"ctor"});
}

TEST(FingerprintSoundnessTest, GenericChainsKeyOnProbeTotals) {
  // Two independent unbound-generic chains: only the totals probe tells the
  // planner their lengths differ, so it must stage-break between them.
  auto chains = [](long n1, long n2, double start) {
    return [=]() -> std::shared_ptr<void> {
      mzdf::ColSum(mzdf::ColAddC(mzdf::ColMulC(Doubles(n1, start), 2.0), 1.0));
      mzdf::ColSum(mzdf::ColMulC(Doubles(n2, start), 3.0));
      return nullptr;
    };
  };
  ColdPlan base = PlanCold(chains(3000, 5000, 1.0));
  ASSERT_GE(base.tmpl.stages.size(), 2u) << "test premise: the totals probe splits the chains";
  ExpectSound(base, PlanCold(chains(3000, 5000, 9.0)), PlanCold(chains(3000, 6000, 1.0)),
              {"probe_total"});
}

TEST(FingerprintSoundnessTest, FrameFilterKeysOnProbedRowWidth) {
  // A frame's row width depends on its schema, so the footprint hints read
  // the probed width: same rows, one more column, must key differently.
  auto filter = [](int cols, double start) {
    return [=]() -> std::shared_ptr<void> {
      const long rows = 4000;
      std::vector<std::string> names;
      std::vector<df::Column> columns;
      for (int c = 0; c < cols; ++c) {
        names.push_back("c" + std::to_string(c));
        columns.push_back(Doubles(rows, start + c));
      }
      df::DataFrame frame = df::DataFrame::Make(std::move(names), std::move(columns));
      auto mask = mzdf::ColGtC(mzdf::ColFromFrame(frame, 0), start + 3.0);
      mzdf::ColSum(mzdf::ColFromFrame(mzdf::FilterRows(frame, mask), 1));
      return nullptr;
    };
  };
  ExpectSound(PlanCold(filter(2, 1.0)), PlanCold(filter(2, 5.0)), PlanCold(filter(3, 1.0)),
              {"probe_width"});
}

TEST(FingerprintSoundnessTest, HaloStencilKeysOnHaloVersusBroadcast) {
  // One function object under two annotations that differ only in `src`'s
  // split expression: the annotation's identity alone tells them apart.
  using AddFirstFunc = TypedFunc<df::Column, const df::Column&, const df::Column&>;
  static const std::shared_ptr<const FuncBase> fn = std::make_shared<AddFirstFunc>(AddFirstOf);
  static const auto bcast = std::make_shared<const Annotation>(
      AnnotationBuilder("plan_cache_test.sound_bcast")
          .Arg("a", Generic("S"))
          .Arg("src", NoSplit())
          .Returns(Generic("S"))
          .Build());
  static const auto halo = std::make_shared<const Annotation>(
      AnnotationBuilder("plan_cache_test.sound_halo")
          .Arg("a", Generic("S"))
          .Arg("src", Halo())
          .Returns(Generic("S"))
          .Build());
  auto stencil = [](const std::shared_ptr<const Annotation>& ann, double start) {
    return [&ann, start]() -> std::shared_ptr<void> {
      mzdf::ColSum(Runtime::Current()->CaptureCall<df::Column, const df::Column&,
                                                   const df::Column&>(
          ann, fn, Doubles(2000, start), Doubles(2000, start + 1.0)));
      return nullptr;
    };
  };
  ColdPlan base = PlanCold(stencil(halo, 1.0));
  bool any_halo = false;
  for (const Stage& stage : base.tmpl.stages) {
    for (const StageBuffer& buf : stage.buffers) {
      any_halo = any_halo || buf.is_halo;
    }
  }
  ASSERT_TRUE(any_halo) << "test premise: the halo operand plans as a halo buffer";
  ExpectSound(base, PlanCold(stencil(halo, 4.0)), PlanCold(stencil(bcast, 1.0)),
              {"annotation"});
}

TEST(FingerprintSoundnessTest, DeferredMergeKeysOnLiveFuture) {
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("plan_cache_test.sound_tick").Arg("k", NoSplit()).Build());
  auto pipeline = [](bool keep_mid, double start) {
    return [=]() -> std::shared_ptr<void> {
      auto mid = std::make_shared<Future<df::Column>>(mzdf::ColMulC(Doubles(3000, start), 2.0));
      tick(1);
      mzdf::ColSum(mzdf::ColAddC(*mid, 1.0));
      return keep_mid ? mid : nullptr;
    };
  };
  ColdPlan base = PlanCold(pipeline(true, 1.0));
  bool any_deferred = false;
  for (const Stage& stage : base.tmpl.stages) {
    for (const StageBuffer& buf : stage.buffers) {
      any_deferred = any_deferred || buf.deferred_merge;
    }
  }
  ASSERT_TRUE(any_deferred) << "test premise: the live future defers a merge";
  ExpectSound(base, PlanCold(pipeline(true, 6.0)), PlanCold(pipeline(false, 1.0)),
              {"external_ref"});
}

}  // namespace
}  // namespace mz
