// Footprint-aware per-stage batching and carried-piece re-batching.
// Covers: identity re-slicing (zero-copy — pieces alias the original
// arrays, verified by in-place results and exercised under ASan),
// owned-stream subdivision and per-worker coalescing through the coverage
// re-cut (coalescing also without can_subdivide), dynamic-scheduling order
// restoration over re-cut pieces, zero-element and single-piece edge
// cases, multi-producer aligned carries (carry chains), re-cutting of
// dynamically-scheduled multi-producer piece sets instead of materializing
// them, and warm plan-cache behavioral round-trips of the per-stage batch
// fields.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/cpu.h"
#include "core/client.h"
#include "core/plan_cache.h"
#include "core/registry.h"
#include "core/runtime.h"
#include "core/unpack.h"
#include "dataframe/annotated.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

RuntimeOptions Opts(int threads = 2, bool pedantic = true) {
  RuntimeOptions o;
  o.num_threads = threads;
  o.pedantic = pedantic;
  return o;
}

// Serial node: forces a stage break without touching the streams around it.
const Annotated<void(long)>& Tick() {
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("rebatch_test.tick").Arg("k", NoSplit()).Build());
  return tick;
}

df::Column MakeColumn(long n, double start = 0.0) {
  std::vector<double> vals(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return df::Column::Doubles(std::move(vals));
}

// ---- identity streams: subdivision is pointer arithmetic ----

// Narrow producer (Copy: ~16 B/elem) feeding a wide consumer stage (a chain
// of Adds over many arrays: ~90 B/elem). The consumer's footprint-derived
// batch is several times smaller than the carried granularity, so the
// carried pointer pieces must subdivide — zero-copy, since ArraySplit
// pieces are offsets into the caller's arrays.
struct FootprintBlowup {
  long n;
  static constexpr int kWide = 8;
  std::vector<double> a, t, o;
  std::vector<std::vector<double>> b;

  explicit FootprintBlowup(long n_in) : n(n_in) {
    a.assign(static_cast<std::size_t>(n), 2.0);
    t.assign(static_cast<std::size_t>(n), 0.0);
    o.assign(static_cast<std::size_t>(n), 0.0);
    for (int k = 0; k < kWide; ++k) {
      b.emplace_back(static_cast<std::size_t>(n), 0.25 * (k + 1));
    }
  }

  void Run(Runtime* rt) {
    RuntimeScope scope(rt);
    mzvec::Copy(n, a.data(), t.data());  // stage A: narrow
    Tick()(1);
    mzvec::Add(n, t.data(), b[0].data(), o.data());  // stage B: wide
    for (int k = 1; k < kWide; ++k) {
      mzvec::Add(n, o.data(), b[k].data(), o.data());
    }
    rt->Evaluate();
  }

  std::vector<double> Expected() const {
    std::vector<double> want(static_cast<std::size_t>(n), 2.0);
    for (long i = 0; i < n; ++i) {
      for (int k = 0; k < kWide; ++k) {
        want[static_cast<std::size_t>(i)] += 0.25 * (k + 1);
      }
    }
    return want;
  }
};

TEST(RebatchIdentity, WideConsumerSubdividesCarriedPieces) {
  // Size so stage A makes a handful of large pieces per worker.
  const long n = std::max<long>(100000, 4 * static_cast<long>(L2CacheBytes()) / 16);
  FootprintBlowup w(n);
  Runtime rt(Opts());
  w.Run(&rt);
  EXPECT_EQ(w.o, w.Expected());
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 3);
  EXPECT_GE(s.boundaries_elided, 1);
  EXPECT_EQ(s.stages_rebatched, 1);
  // The whole point: every stage's per-batch working set fits the budget.
  EXPECT_LE(s.footprint_bytes_max, static_cast<std::int64_t>(L2CacheBytes()));
}

TEST(RebatchIdentity, WarmPlanCacheReproducesRebatching) {
  // The per-stage batch fields (elem_bytes_hint) ride plan templates; a
  // warm hit must re-batch exactly like the cold run did.
  const long n = std::max<long>(100000, 4 * static_cast<long>(L2CacheBytes()) / 16);
  PlanCache cache;
  auto run = [&](EvalStats::Snapshot* out) {
    FootprintBlowup w(n);
    RuntimeOptions opts = Opts();
    opts.plan_cache = &cache;
    Runtime rt(opts);
    w.Run(&rt);
    EXPECT_EQ(w.o, w.Expected());
    *out = rt.stats().Take();
  };
  EvalStats::Snapshot cold, warm;
  run(&cold);
  run(&warm);
  EXPECT_EQ(cold.plans_built, 1);
  EXPECT_EQ(warm.plans_built, 0) << "warm runtime re-planned";
  EXPECT_EQ(warm.plan_cache_hits, 1);
  EXPECT_EQ(warm.stages_rebatched, cold.stages_rebatched);
  EXPECT_EQ(warm.boundaries_elided, cold.boundaries_elided);
  EXPECT_EQ(warm.footprint_bytes_max, cold.footprint_bytes_max);
}

// ---- owned streams: subdivision re-Splits pieces, coalescing merges ----

df::Column MakeColumnMod(long n, long mod, double offset) {
  std::vector<double> vals(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = static_cast<double>(i % mod) + offset;
  }
  return df::Column::Doubles(std::move(vals));
}

TEST(RebatchOwned, NarrowConsumerCoalescesCarriedPieces) {
  // Wide producer (5 column buffers live) → narrow consumer (2): consumer
  // batch ≈ 2.5× the carried granularity, so adjacent pieces coalesce per
  // worker (real per-worker merges, no global merge → re-split). Values are
  // small integers so the parallel reduction stays exactly representable.
  const long n = std::max<long>(60000, 6 * static_cast<long>(L2CacheBytes()) / 40);
  df::Column a = MakeColumnMod(n, 100, 0.0);
  df::Column b = MakeColumnMod(n, 100, 1.0);
  df::Column c = MakeColumnMod(n, 100, 2.0);
  Runtime rt(Opts());
  double got;
  {
    RuntimeScope scope(&rt);
    Future<double> sum = [&] {
      auto ab = mzdf::ColMul(a, b);
      auto x = mzdf::ColAdd(ab, c);  // stage A: a, b, ab, c, x live
      Tick()(1);
      auto y = mzdf::ColMulC(x, 2.0);  // stage B: x (carried), y
      return mzdf::ColSum(y);
    }();
    got = sum.get();
  }
  double want = 0;
  for (long i = 0; i < n; ++i) {
    double v = static_cast<double>(i % 100);
    want += 2.0 * (v * (v + 1.0) + v + 2.0);
  }
  EXPECT_DOUBLE_EQ(got, want);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_GE(s.boundaries_elided, 1);
  EXPECT_EQ(s.stages_rebatched, 1);
}

TEST(RebatchOwned, DynamicSchedulingRestoresOrderAfterSubdivide) {
  // Narrow producer → wide consumer over an owned column stream, with work
  // stealing: subdivided pieces are claimed out of order and the consumer's
  // output column must still reassemble in source order. The output future
  // stays live, so its merge is the deferred (merge-on-get) path — ordered
  // pieces merged on demand.
  const long n = std::max<long>(80000, 4 * static_cast<long>(L2CacheBytes()) / 16);
  df::Column base = MakeColumn(n);
  RuntimeOptions opts = Opts(/*threads=*/4);
  opts.dynamic_scheduling = true;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  Future<df::Column> out = [&] {
    auto x = mzdf::ColMulC(base, 1.0);  // stage A: base, x (narrow)
    Tick()(7);
    // Stage B: x carried + m, w, z, s live → wide.
    auto m = mzdf::ColGtC(x, -1.0);
    auto w = mzdf::ColWhere(m, x, 0.0);
    auto z = mzdf::ColMul(w, x);
    return mzdf::ColMulC(z, 2.0);
  }();
  df::Column got = out.get();
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_GE(s.boundaries_elided, 1);
  EXPECT_EQ(s.stages_rebatched, 1);
  ASSERT_EQ(got.size(), n);
  for (long i = 0; i < n; i += 997) {
    double v = static_cast<double>(i);
    EXPECT_DOUBLE_EQ(got.d(i), 2.0 * v * v) << "row order lost at " << i;
  }
}

TEST(RebatchOwned, ZeroElementStreamNeverRebatches) {
  df::Column base = MakeColumn(0);
  Runtime rt(Opts());
  double got;
  {
    RuntimeScope scope(&rt);
    Future<double> sum = [&] {
      auto x = mzdf::ColMulC(base, 1.0);
      Tick()(1);
      auto m = mzdf::ColGtC(x, -1.0);
      auto w = mzdf::ColWhere(m, x, 0.0);
      auto z = mzdf::ColMul(w, x);
      return mzdf::ColSum(z);
    }();
    got = sum.get();
  }
  EXPECT_DOUBLE_EQ(got, 0.0);
  EXPECT_EQ(rt.stats().Take().stages_rebatched, 0);
}

TEST(RebatchOwned, TinyTotalStaysSinglePiece) {
  // A total far below any batch size: one piece per worker, nothing to
  // subdivide or coalesce — the reconciliation must be a clean no-op.
  const long n = 64;
  df::Column base = MakeColumn(n);
  Runtime rt(Opts());
  double got;
  {
    RuntimeScope scope(&rt);
    Future<double> sum = [&] {
      auto x = mzdf::ColMulC(base, 3.0);
      Tick()(1);
      auto m = mzdf::ColGtC(x, -1.0);
      auto w = mzdf::ColWhere(m, x, 0.0);
      auto z = mzdf::ColMul(w, x);
      return mzdf::ColSum(z);
    }();
    got = sum.get();
  }
  double want = 0;
  for (long i = 0; i < n; ++i) {
    double x = 3.0 * static_cast<double>(i);
    want += x * x;
  }
  EXPECT_DOUBLE_EQ(got, want);
  EXPECT_EQ(rt.stats().Take().stages_rebatched, 0);
}

// ---- multi-producer carries (carry chains) ----

TEST(RebatchChains, AlignedCarriesFromTwoProducersBothElide) {
  // -pipe puts every node in its own stage: stage 2 consumes p (produced in
  // stage 0) and q (produced in stage 1). Both streams are aligned identity
  // ArraySplit<n>, so BOTH may carry — the single-producer rule used to
  // drop one of them.
  const long n = 120000;
  std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  std::vector<double> p(static_cast<std::size_t>(n));
  std::vector<double> q(static_cast<std::size_t>(n));
  std::vector<double> r(static_cast<std::size_t>(n));
  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Copy(n, a.data(), p.data());
  mzvec::Copy(n, b.data(), q.data());
  mzvec::Add(n, p.data(), q.data(), r.data());
  rt.Evaluate();
  for (long i = 0; i < n; i += 1999) {
    EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(i)], 3.0);
  }
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 3);
  EXPECT_EQ(s.boundaries_elided, 2) << "both producers' pieces should carry";
}

// ---- coverage-aware re-cut (dynamic multi-producer carried sets) ----

// An owned vector stream: Split copies the subrange (pieces do NOT alias
// the original, so there is no identity full value to re-slice), Merge
// concatenates, and pieces may re-Split with piece-local ranges
// (can_subdivide). Concrete params come from the literal `size` argument,
// so two producer stages' streams are aligned and BOTH may carry.
// "TestVecWholeSplit" is the same stream without can_subdivide, like the
// image and nlp types.
using Vec = std::vector<double>;

void RegisterVecSplitAs(const char* name, SplitterTraits traits) {
  Registry& reg = Registry::Global();
  reg.DefineSplitType(
      name,
      [](std::span<const Value> args) -> std::optional<std::vector<std::int64_t>> {
        if (!args[0].has_value()) {
          return std::nullopt;  // pending; never happens for literal sizes
        }
        return std::vector<std::int64_t>{ValueToInt64(args[0])};
      },
      [](const Value& v) {
        return std::vector<std::int64_t>{static_cast<std::int64_t>(v.As<Vec>().size())};
      });
  RegisterTypedSplitter<Vec>(
      reg, name,
      [](const Vec& v, std::span<const std::int64_t> params) {
        return RuntimeInfo{params.empty() ? static_cast<std::int64_t>(v.size()) : params[0],
                           static_cast<std::int64_t>(sizeof(double))};
      },
      [](const Vec& v, std::int64_t start, std::int64_t end,
         std::span<const std::int64_t> params, const SplitContext& ctx) {
        (void)params;
        (void)ctx;
        return Value::Make<Vec>(Vec(v.begin() + start, v.begin() + end));
      },
      [](const Value& original, std::vector<Value> pieces,
         std::span<const std::int64_t> params) {
        (void)original;
        (void)params;
        Vec out;
        for (Value& p : pieces) {
          const Vec& v = p.As<Vec>();
          out.insert(out.end(), v.begin(), v.end());
        }
        return Value::Make<Vec>(std::move(out));
      },
      traits);
}

void RegisterVecSplit() {
  static const bool done = [] {
    RegisterVecSplitAs("TestVecSplit", SplitterTraits{.can_subdivide = true});
    RegisterVecSplitAs("TestVecWholeSplit", SplitterTraits{});
    return true;
  }();
  (void)done;
}

// The test stream's split name: TestVecWholeSplit when kWhole.
template <bool kWhole>
constexpr const char* kVecSplit = kWhole ? "TestVecWholeSplit" : "TestVecSplit";

// Narrow producer: one in, one out.
template <bool kWhole = false>
const Annotated<Vec(long, const Vec&)>& VecScale() {
  RegisterVecSplit();
  static const Annotated<Vec(long, const Vec&)> fn(
      [](long size, const Vec& v) {
        Vec out(v);
        for (long i = 0; i < size; ++i) {
          out[static_cast<std::size_t>(i)] *= 2.0;
        }
        return out;
      },
      AnnotationBuilder(kWhole ? "rebatch_test.vec_scale_whole" : "rebatch_test.vec_scale")
          .Arg("size", Split("SizeSplit", {"size"}))
          .Arg("v", Split(kVecSplit<kWhole>, {"size"}))
          .Returns(Split(kVecSplit<kWhole>, {"size"}))
          .Build());
  return fn;
}

// Wide producer: three inputs live per element, so its footprint-derived
// batch (and hence its carried piece structure) differs from VecScale's.
template <bool kWhole = false>
const Annotated<Vec(long, const Vec&, const Vec&, const Vec&)>& VecAdd3() {
  RegisterVecSplit();
  static const Annotated<Vec(long, const Vec&, const Vec&, const Vec&)> fn(
      [](long size, const Vec& a, const Vec& b, const Vec& c) {
        Vec out(static_cast<std::size_t>(size));
        for (long i = 0; i < size; ++i) {
          std::size_t j = static_cast<std::size_t>(i);
          out[j] = a[j] + b[j] + c[j];
        }
        return out;
      },
      AnnotationBuilder(kWhole ? "rebatch_test.vec_add3_whole" : "rebatch_test.vec_add3")
          .Arg("size", Split("SizeSplit", {"size"}))
          .Arg("a", Split(kVecSplit<kWhole>, {"size"}))
          .Arg("b", Split(kVecSplit<kWhole>, {"size"}))
          .Arg("c", Split(kVecSplit<kWhole>, {"size"}))
          .Returns(Split(kVecSplit<kWhole>, {"size"}))
          .Build());
  return fn;
}

const Annotated<Vec(long, const Vec&, const Vec&)>& VecMul2() {
  RegisterVecSplit();
  static const Annotated<Vec(long, const Vec&, const Vec&)> fn(
      [](long size, const Vec& a, const Vec& b) {
        Vec out(static_cast<std::size_t>(size));
        for (long i = 0; i < size; ++i) {
          std::size_t j = static_cast<std::size_t>(i);
          out[j] = a[j] * b[j];
        }
        return out;
      },
      AnnotationBuilder("rebatch_test.vec_mul2")
          .Arg("size", Split("SizeSplit", {"size"}))
          .Arg("a", Split("TestVecSplit", {"size"}))
          .Arg("b", Split("TestVecSplit", {"size"}))
          .Returns(Split("TestVecSplit", {"size"}))
          .Build());
  return fn;
}

TEST(RebatchChains, DynamicMultiProducerCarriesRecutInPlace) {
  // Two producer stages with different footprints (→ different batch sizes)
  // emit owned piece sets whose range structures disagree; under work
  // stealing even the per-worker assignment differs. The consumer's
  // reconciliation used to materialize the non-template set (full merge +
  // re-split); with coverage-aware re-cutting the pieces — which provably
  // tile [0, n) — are re-cut in place through their own splitter.
  const long n = std::max<long>(100000, 4 * static_cast<long>(L2CacheBytes()) / 8);
  Vec a(static_cast<std::size_t>(n));
  Vec b(static_cast<std::size_t>(n)), c(static_cast<std::size_t>(n)),
      d(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    std::size_t j = static_cast<std::size_t>(i);
    a[j] = static_cast<double>(i % 50);
    b[j] = 1.0;
    c[j] = 2.0;
    d[j] = static_cast<double>(i % 7);
  }

  RuntimeOptions opts = Opts(/*threads=*/4);
  opts.dynamic_scheduling = true;
  Runtime rt(opts);
  Vec got;
  {
    RuntimeScope scope(&rt);
    auto p = VecScale()(n, a);  // stage 0: narrow producer
    Tick()(1);
    auto q = VecAdd3()(n, b, c, d);  // stage 2: wide producer
    Tick()(2);
    Future<Vec> r = VecMul2()(n, p, q);  // stage 4: consumes both carried sets
    got = r.get();
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (long i = 0; i < n; i += 991) {
    std::size_t j = static_cast<std::size_t>(i);
    double want = (2.0 * static_cast<double>(i % 50)) * (3.0 + static_cast<double>(i % 7));
    EXPECT_DOUBLE_EQ(got[j], want) << "row " << i;
  }
  EvalStats::Snapshot s = rt.stats().Take();
  // Both producers' boundaries elide, and the straggler set re-cuts instead
  // of materializing.
  EXPECT_GE(s.boundaries_elided, 2);
  EXPECT_GE(s.carried_recuts, 1);
}

TEST(RebatchOwned, CoalescingNeedsNoSubdivide) {
  // Wide producer (5 vector buffers live) → narrow consumer (2) over an
  // owned stream whose splitter cannot re-Split pieces: the consumer's
  // batch is 2.5× the carried granularity. Coalescing merges whole carried
  // pieces, so the set still re-batches instead of materializing.
  const long n = std::max<long>(100000, 8 * static_cast<long>(L2CacheBytes()) / 40);
  Vec a(static_cast<std::size_t>(n));
  Vec b(static_cast<std::size_t>(n), 1.0), c(static_cast<std::size_t>(n), 2.0);
  for (long i = 0; i < n; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<double>(i % 50);
  }
  Runtime rt(Opts());
  Vec got;
  {
    RuntimeScope scope(&rt);
    Future<Vec> r = [&] {
      auto x = VecAdd3<true>()(n, a, b, c);  // stage A: a, b, c, x, p live
      auto p = VecAdd3<true>()(n, x, b, c);
      Tick()(1);
      return VecScale<true>()(n, p);  // stage B: p carried, r
    }();
    got = r.get();
  }
  Vec want(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < want.size(); ++j) {
    want[j] = 2.0 * (a[j] + 2.0 * (b[j] + c[j]));
  }
  EXPECT_EQ(got, want);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_GE(s.boundaries_elided, 1);
  EXPECT_EQ(s.stages_rebatched, 1);
}

TEST(RebatchChains, IdentityPipelineChainsAllBoundaries) {
  // Acceptance shape: an N-stage identity-merge pipeline does one split and
  // one merge total — stages-1 boundaries elided, chain length stages-1.
  const long n = 80000;
  const int kStages = 4;
  std::vector<double> a(static_cast<std::size_t>(n), 16.0);
  std::vector<double> out(static_cast<std::size_t>(n));
  RuntimeOptions opts = Opts();
  opts.pipeline = false;  // one stage per node
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Sqrt(n, a.data(), out.data());   // 4
  mzvec::Sqrt(n, out.data(), out.data()); // 2
  mzvec::Sqr(n, out.data(), out.data());  // 4
  mzvec::Sqrt(n, out.data(), out.data()); // 2
  rt.Evaluate();
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, kStages);
  EXPECT_EQ(s.boundaries_elided, kStages - 1);
  EXPECT_EQ(s.carry_chain_len_max, kStages - 1);
}

}  // namespace
}  // namespace mz
