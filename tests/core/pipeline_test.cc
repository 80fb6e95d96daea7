// Inter-stage pipeline parallelism (ISSUE 6): pipelineable regions planned
// by AnnotatePipeline and executed as one overlapped batch walk. Covers:
// region formation on carried chains (with fresh split inputs joining at
// interior depths), the no-region single-stage case, zero-element regions,
// exception propagation from steady state under both schedulers, the
// pipeline_stages ablation knob, warm plan-cache reproduction of the region
// schedule, and the broadcast-footprint batch-sizing fix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/cpu.h"
#include "core/client.h"
#include "core/plan_cache.h"
#include "core/runtime.h"
#include "dataframe/annotated.h"
#include "dataframe/ops.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

RuntimeOptions Opts(int threads = 4, bool pedantic = true) {
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
      AnnotationBuilder("pipeline_test.tick").Arg("k", NoSplit()).Build());
  return tick;
}

df::Column MakeColumn(long n, double start = 0.0) {
  std::vector<double> vals(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    vals[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return df::Column::Doubles(std::move(vals));
}

// ---- region formation and correctness ----

TEST(PipelineRegion, SingleStagePlanHasNoRegion) {
  const long n = 50000;
  df::Column base = MakeColumn(n);
  Runtime rt(Opts());
  double got;
  {
    RuntimeScope scope(&rt);
    // One fused stage: generic pipelining chains all three calls.
    Future<double> sum = mzdf::ColSum(mzdf::ColAddC(mzdf::ColMulC(base, 2.0), 1.0));
    got = sum.get();
  }
  double want = 0;
  for (long i = 0; i < n; ++i) {
    want += 2.0 * static_cast<double>(i) + 1.0;
  }
  EXPECT_DOUBLE_EQ(got, want);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 1);
  EXPECT_EQ(s.pipeline_regions, 0);
  EXPECT_EQ(s.pipeline_overlap_ns, 0);
}

TEST(PipelineRegion, CarriedChainFormsRegionAndOverlaps) {
  // -pipe puts every call in its own stage; the in-place `out` array carries
  // across every boundary, so the whole chain is one pipelineable region.
  const long n = 200000;
  std::vector<double> a(static_cast<std::size_t>(n), 4.0);
  std::vector<double> got(static_cast<std::size_t>(n));
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Sqrt(n, a.data(), want.data());
  vecmath::Exp(n, want.data(), want.data());
  vecmath::Log(n, want.data(), want.data());

  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Sqrt(n, a.data(), got.data());
  mzvec::Exp(n, got.data(), got.data());
  mzvec::Log(n, got.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(got, want);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 3);
  EXPECT_EQ(s.pipeline_regions, 1);
  EXPECT_GT(s.pipeline_overlap_ns, 0);
  EXPECT_EQ(s.boundaries_elided, 2);
}

TEST(PipelineRegion, FreshInputsJoinTheRegionAtInteriorDepths) {
  // Binary chain: each interior stage reads the carried stream plus a fresh
  // array (and the fresh SizeSplit scalar). The fresh inputs are
  // materialized before the region starts and split by the in-flight batch
  // ranges.
  const long n = 150000;
  std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 2.0);
  std::vector<double> c(static_cast<std::size_t>(n), 3.0);
  std::vector<double> r(static_cast<std::size_t>(n));

  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Copy(n, a.data(), r.data());
  mzvec::Add(n, r.data(), b.data(), r.data());
  mzvec::Add(n, r.data(), c.data(), r.data());
  rt.Evaluate();
  for (long i = 0; i < n; i += 1777) {
    EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(i)], 6.0);
  }
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 3);
  EXPECT_EQ(s.pipeline_regions, 1);
}

TEST(PipelineRegion, DynamicQueueMatchesStatic) {
  // The deep-region dynamic task queue (deepest-first claiming) must
  // produce the same values as the static batch-major walk.
  const long n = 150000;
  std::vector<double> a(static_cast<std::size_t>(n), 16.0);
  std::vector<double> want(static_cast<std::size_t>(n));
  std::vector<double> got(static_cast<std::size_t>(n));
  vecmath::Sqrt(n, a.data(), want.data());
  vecmath::Sqrt(n, want.data(), want.data());
  vecmath::Sqr(n, want.data(), want.data());

  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  opts.dynamic_scheduling = true;
  opts.batch_elems_override = 4096;  // many tasks → real cross-depth claiming
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Sqrt(n, a.data(), got.data());
  mzvec::Sqrt(n, got.data(), got.data());
  mzvec::Sqr(n, got.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(got, want);
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.pipeline_regions, 1);
  EXPECT_GT(s.pipeline_overlap_ns, 0);
}

// A live Future on a stream fed inside the region: the boundary is elided,
// its pieces are consumed in flight, and a copy is parked on the slot for
// merge-on-get.
void ExpectInRegionDeferredMerge(bool dynamic) {
  const long n = 50000;
  df::Column base = MakeColumn(n);
  const df::Column want = df::ColMulC(base, 2.0);
  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  opts.dynamic_scheduling = dynamic;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  Future<df::Column> mid = mzdf::ColMulC(base, 2.0);
  Future<double> sum = mzdf::ColSum(mzdf::ColAddC(mid, 1.0));
  (void)sum.get();
  EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.stages, 3);
  EXPECT_EQ(s.pipeline_regions, 1);
  EXPECT_EQ(s.boundaries_elided, 2);
  EXPECT_EQ(s.deferred_merges, 1);
  df::Column got = mid.get();
  ASSERT_EQ(got.size(), n);
  EXPECT_EQ(std::memcmp(got.doubles().data(), want.doubles().data(),
                        static_cast<std::size_t>(n) * sizeof(double)),
            0);
}

TEST(PipelineRegion, InRegionFeedParksDeferredMergeStatic) { ExpectInRegionDeferredMerge(false); }

TEST(PipelineRegion, InRegionFeedParksDeferredMergeDynamic) { ExpectInRegionDeferredMerge(true); }

TEST(PipelineRegion, ZeroElementRegionRunsEmptyBatches) {
  // A zero-length stream through a multi-stage region: one empty batch
  // walks all depths (schema preservation) without crashing.
  std::vector<double> a(1, 4.0);
  std::vector<double> out(1, -1.0);
  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  mzvec::Sqrt(0, a.data(), out.data());
  mzvec::Sqr(0, out.data(), out.data());
  rt.Evaluate();
  EXPECT_DOUBLE_EQ(out[0], -1.0);  // untouched
  EXPECT_EQ(rt.stats().Take().pipeline_regions, 1);
}

// ---- failure propagation ----

// Copies a→out but throws when it encounters the sentinel value, so the
// failure strikes mid-stream — during the region's steady state.
const Annotated<void(long, const double*, double*)>& ThrowOnSentinel() {
  static const Annotated<void(long, const double*, double*)> fn(
      [](long size, const double* a, double* out) {
        for (long i = 0; i < size; ++i) {
          if (a[i] == 12345.0) {
            throw std::runtime_error("sentinel hit");
          }
          out[i] = a[i];
        }
      },
      AnnotationBuilder("pipeline_test.throw_on_sentinel")
          .Arg("size", Split("SizeSplit", {"size"}))
          .Arg("a", Split("ArraySplit", {"size"}))
          .MutArg("out", Split("ArraySplit", {"size"}))
          .Build());
  return fn;
}

void RunSteadyStateThrow(bool dynamic) {
  const long n = 120000;
  std::vector<double> a(static_cast<std::size_t>(n), 1.0);
  std::vector<double> mid(static_cast<std::size_t>(n));
  std::vector<double> out(static_cast<std::size_t>(n));
  a[static_cast<std::size_t>(n / 2)] = 12345.0;  // trips depth 1 mid-stream

  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  opts.dynamic_scheduling = dynamic;
  Runtime rt(opts);
  {
    RuntimeScope scope(&rt);
    mzvec::Copy(n, a.data(), mid.data());
    ThrowOnSentinel()(n, mid.data(), out.data());
    EXPECT_THROW(rt.Evaluate(), std::runtime_error);
  }
  // The executor must unwind cleanly (no deadlocked queue workers, no
  // poisoned pool): the same runtime evaluates a fresh graph afterwards.
  rt.Reset();
  std::vector<double> b(1000, 9.0);
  std::vector<double> c(1000);
  {
    RuntimeScope scope(&rt);
    mzvec::Sqrt(1000, b.data(), c.data());
    rt.Evaluate();
  }
  EXPECT_DOUBLE_EQ(c[0], 3.0);
}

TEST(PipelineFailure, SteadyStateExceptionPropagatesStatic) {
  RunSteadyStateThrow(/*dynamic=*/false);
}

TEST(PipelineFailure, SteadyStateExceptionPropagatesDynamic) {
  RunSteadyStateThrow(/*dynamic=*/true);
}

// ---- ablation knob ----

TEST(PipelineAblation, KnobOffMatchesKnobOn) {
  const long n = 100000;
  std::vector<double> a(static_cast<std::size_t>(n), 4.0);
  auto run = [&](bool pipelined) {
    std::vector<double> out(static_cast<std::size_t>(n));
    RuntimeOptions opts = Opts();
    opts.pipeline = false;
    opts.pipeline_stages = pipelined;
    Runtime rt(opts);
    RuntimeScope scope(&rt);
    mzvec::Sqrt(n, a.data(), out.data());
    mzvec::Exp(n, out.data(), out.data());
    mzvec::Log(n, out.data(), out.data());
    rt.Evaluate();
    EvalStats::Snapshot s = rt.stats().Take();
    return std::make_pair(out, s);
  };
  auto [on_vals, on_stats] = run(true);
  auto [off_vals, off_stats] = run(false);
  EXPECT_EQ(on_vals, off_vals);
  EXPECT_EQ(on_stats.pipeline_regions, 1);
  EXPECT_EQ(off_stats.pipeline_regions, 0);
  EXPECT_EQ(off_stats.pipeline_overlap_ns, 0);
  // The knob only changes the schedule: the same stages run and the same
  // boundaries elide either way.
  EXPECT_EQ(on_stats.stages, off_stats.stages);
  EXPECT_EQ(on_stats.boundaries_elided, off_stats.boundaries_elided);
}

// ---- plan-template round trip (warm cache reproduces the schedule) ----

TEST(PipelineTemplate, WarmPlanCacheReproducesRegionsAndBatches) {
  // The region ids/depths and the footprint hints (splitter WidthForParams)
  // are plan-template state: a warm cache hit must reproduce the cold run's
  // schedule bit-identically — same regions, same batch count, same
  // re-batching decisions.
  const long n = 120000;
  std::vector<double> a(static_cast<std::size_t>(n), 4.0);
  df::Column base = MakeColumn(20000);
  PlanCache cache;
  RuntimeOptions opts = Opts();
  opts.pipeline = false;
  opts.plan_cache = &cache;
  Runtime rt(opts);

  auto run = [&] {
    std::vector<double> out(static_cast<std::size_t>(n));
    RuntimeScope scope(&rt);
    mzvec::Sqrt(n, a.data(), out.data());
    mzvec::Exp(n, out.data(), out.data());
    rt.Evaluate();
    // A column produce→consume chain across a serial break: carried column
    // pieces whose footprint model reads the SeriesSplit width params.
    Future<df::Column> cur = mzdf::ColMulC(base, 2.0);
    auto next = mzdf::ColAddC(cur, 1.0);
    Tick()(1);
    Future<double> sum = mzdf::ColSum(mzdf::ColAddC(next, 1.0));
    return sum.get();
  };

  double cold_val = run();
  EvalStats::Snapshot cold = rt.stats().Take();
  rt.stats().Reset();
  double warm_val = run();
  EvalStats::Snapshot warm = rt.stats().Take();

  EXPECT_DOUBLE_EQ(cold_val, warm_val);
  EXPECT_GT(warm.plan_cache_hits, 0);
  EXPECT_EQ(warm.plans_built, 0);
  EXPECT_EQ(warm.pipeline_regions, cold.pipeline_regions);
  EXPECT_GE(warm.pipeline_regions, 1);
  EXPECT_EQ(warm.batches, cold.batches);
  EXPECT_EQ(warm.stages_rebatched, cold.stages_rebatched);
  EXPECT_EQ(warm.boundaries_elided, cold.boundaries_elided);
}

// ---- broadcast footprint accounting (bugfix) ----

// out[i] = a[i] + big[0]: `big` is a "_" operand read in full by every
// piece call, so it sits cache-resident for the whole stage.
const Annotated<df::Column(const df::Column&, const df::Column&)>& AddHead() {
  static const Annotated<df::Column(const df::Column&, const df::Column&)> fn(
      [](const df::Column& a, const df::Column& big) {
        std::vector<double> out(static_cast<std::size_t>(a.size()));
        const double head = big.size() > 0 ? big.d(0) : 0.0;
        for (long i = 0; i < a.size(); ++i) {
          out[static_cast<std::size_t>(i)] = a.d(i) + head;
        }
        return df::Column::Doubles(std::move(out));
      },
      AnnotationBuilder("pipeline_test.add_head")
          .Arg("a", Generic("S"))
          .Arg("big", NoSplit())
          .Returns(Generic("S"))
          .Build());
  return fn;
}

TEST(BroadcastFootprint, WideBroadcastOperandShrinksTheBatch) {
  // A broadcast operand bigger than the whole L2 budget must drive the
  // batch to its floor — the pre-fix model ignored broadcasts and sized
  // batches as if the cache were empty.
  const long n = 64;
  const long big_rows = 2 * static_cast<long>(L2CacheBytes()) / 8;
  df::Column a = MakeColumn(n);
  df::Column big = MakeColumn(big_rows);
  df::Column small = MakeColumn(8);

  auto run = [&](const df::Column& bcast) {
    Runtime rt(Opts(/*threads=*/2));
    RuntimeScope scope(&rt);
    Future<df::Column> out = AddHead()(a, bcast);
    df::Column got = out.get();
    EXPECT_EQ(got.size(), n);
    EXPECT_DOUBLE_EQ(got.d(5), 5.0 + bcast.d(0));
    return rt.stats().Take().batches;
  };

  std::int64_t batches_small = run(small);
  std::int64_t batches_big = run(big);
  // Budget exhausted by the resident broadcast → one-element batches.
  EXPECT_GE(batches_big, n / 2);
  EXPECT_GT(batches_big, batches_small);
}

TEST(BroadcastFootprint, GaugeCountsResidentBroadcastBytes) {
  // The footprint gauge reports the largest per-batch working set: the
  // batch's per-element bytes plus the broadcast bytes every batch holds.
  const long n = 64;
  const long big_rows = 2 * static_cast<long>(L2CacheBytes()) / 8;
  df::Column a = MakeColumn(n);
  df::Column big = MakeColumn(big_rows);
  Runtime rt(Opts(/*threads=*/2));
  RuntimeScope scope(&rt);
  EXPECT_EQ(AddHead()(a, big).get().size(), n);
  EXPECT_GE(rt.stats().Take().footprint_bytes_max, big_rows * 8);
}

// ---- splitter width hooks (exact widths, not element_width constants) ----

TEST(SplitterWidth, SeriesAndFrameReportParamWidths) {
  Registry& reg = Registry::Global();
  const InternedId series = InternName("SeriesSplit");
  // {total_rows, bytes_per_row}: the width is the params' second word.
  const std::int64_t series_params[] = {1000, 48};
  EXPECT_EQ(reg.ElementWidthForSplitType(series, series_params), 48);
  // Param-less fallback: the traits constant (8-byte double rows).
  EXPECT_EQ(reg.ElementWidthForSplitType(series), 8);
}

}  // namespace
}  // namespace mz
