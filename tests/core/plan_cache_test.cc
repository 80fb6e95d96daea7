// PlanCache: structural fingerprinting, hit/miss accounting, hash-collision
// safety, bounded eviction, cross-runtime template reuse, and invalidation
// when the registry changes.
#include "core/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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
  Planner planner(graph, Registry::Global(), /*pipeline=*/true);
  Plan cold = planner.Build(0, end);

  bool any_carry = false;
  for (const Stage& stage : cold.stages) {
    any_carry = any_carry || stage.feeds_carries || stage.takes_carries;
  }
  ASSERT_TRUE(any_carry) << "test premise: the plan must contain elided boundaries";

  Plan tmpl = MakePlanTemplate(cold, fp.canon_slots, 0);
  Plan warm = InstantiatePlan(tmpl, fp.canon_slots, 0);
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
  Planner planner(graph, Registry::Global(), /*pipeline=*/true);
  Plan cold = planner.Build(0, end);

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

  Plan tmpl = MakePlanTemplate(cold, fp.canon_slots, 0);
  Plan warm = InstantiatePlan(tmpl, fp.canon_slots, 0);
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

}  // namespace
}  // namespace mz
