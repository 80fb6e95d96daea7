// Edge-case battery for the streaming subsystem (core/stream.h):
// windowing over chunk boundaries, zero-element and undersized chunks,
// partial-window flush, sliding overlap, bounded history, mid-stream
// Future::get(), the no-leaked-futures contract, incremental accumulation
// for reductions and group-bys, and the steady-state re-plan-free promise
// (plan_cache_hits == firings - 1 when the window divides the stream).
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_cache.h"
#include "core/runtime.h"
#include "core/stream.h"
#include "dataframe/annotated.h"
#include "vecmath/annotated.h"

namespace {

using df::Column;
using df::DataFrame;
using Vec = std::vector<double>;

mz::RuntimeOptions Opts(int threads = 4, bool pedantic = true) {
  mz::RuntimeOptions o;
  o.num_threads = threads;
  o.pedantic = pedantic;
  return o;
}

Vec MakeVec(long n, double start = 0.0) {
  Vec v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  return v;
}

df::Column MakeColumn(long n, double start = 0.0) {
  return df::Column::Doubles(MakeVec(n, start));
}

// Pushes `data` onto `src` in chunks of `chunk` elements and closes it.
void PushChunked(mz::StreamSource& src, const Vec& data, long chunk) {
  for (std::size_t off = 0; off < data.size(); off += static_cast<std::size_t>(chunk)) {
    std::size_t hi = std::min(data.size(), off + static_cast<std::size_t>(chunk));
    src.Push(mz::Value::Make<Vec>(Vec(data.begin() + static_cast<long>(off),
                                      data.begin() + static_cast<long>(hi))));
  }
  src.Close();
}

// --- Windower mechanics ------------------------------------------------------

TEST(WindowerTest, TumblingWindowsCrossChunkBoundaries) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  PushChunked(src, MakeVec(100), /*chunk=*/7);  // 100 = 14*7 + 2: nothing lines up
  mz::Windower w(&src, {.window = 10}, nullptr);
  double expect = 0.0;
  long windows = 0;
  for (;;) {
    std::int64_t elems = 0;
    auto win = w.Next(&elems);
    if (!win.has_value()) break;
    const Vec& v = win->As<Vec>();
    ASSERT_EQ(elems, static_cast<std::int64_t>(v.size()));
    ASSERT_EQ(v.size(), 10u);
    for (double x : v) EXPECT_EQ(x, expect++);
    ++windows;
  }
  EXPECT_EQ(windows, 10);
  EXPECT_EQ(w.windows_assembled(), 10);
  EXPECT_EQ(expect, 100.0);
}

TEST(WindowerTest, WindowBoundaryExactlyOnChunkBoundary) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  PushChunked(src, MakeVec(64), /*chunk=*/16);  // window == chunk: zero-copy path
  mz::Windower w(&src, {.window = 16}, nullptr);
  long windows = 0;
  double expect = 0.0;
  while (auto win = w.Next()) {
    const Vec& v = win->As<Vec>();
    ASSERT_EQ(v.size(), 16u);
    for (double x : v) EXPECT_EQ(x, expect++);
    ++windows;
  }
  EXPECT_EQ(windows, 4);
}

TEST(WindowerTest, ZeroElementChunksAreSkipped) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  src.Push(mz::Value::Make<Vec>(Vec{}));
  src.Push(mz::Value::Make<Vec>(MakeVec(3)));
  src.Push(mz::Value::Make<Vec>(Vec{}));
  src.Push(mz::Value::Make<Vec>(MakeVec(5, 3.0)));
  src.Push(mz::Value::Make<Vec>(Vec{}));
  src.Close();
  mz::Windower w(&src, {.window = 4}, nullptr);
  std::vector<Vec> wins;
  while (auto win = w.Next()) wins.push_back(win->As<Vec>());
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0], MakeVec(4));
  EXPECT_EQ(wins[1], MakeVec(4, 4.0));  // final partial flush: 8 % 4 == 0, so full
}

TEST(WindowerTest, ChunksSmallerThanOneBatchStillAssemble) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  PushChunked(src, MakeVec(31), /*chunk=*/1);  // degenerate: every chunk is 1 element
  mz::Windower w(&src, {.window = 8}, nullptr);
  long total = 0, windows = 0;
  while (auto win = w.Next()) {
    total += static_cast<long>(win->As<Vec>().size());
    ++windows;
  }
  EXPECT_EQ(windows, 4);  // 8+8+8 full + 7 partial
  EXPECT_EQ(total, 31);
}

TEST(WindowerTest, PartialFlushOffDropsTail) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  PushChunked(src, MakeVec(30), /*chunk=*/30);
  mz::Windower w(&src, {.window = 8, .flush_partial = false}, nullptr);
  long windows = 0;
  while (auto win = w.Next()) {
    EXPECT_EQ(win->As<Vec>().size(), 8u);
    ++windows;
  }
  EXPECT_EQ(windows, 3);  // 30 = 3*8 + 6; the 6-element tail is dropped
}

TEST(WindowerTest, SlidingWindowsOverlap) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  PushChunked(src, MakeVec(20), /*chunk=*/6);
  mz::Windower w(&src, {.window = 8, .slide = 4, .flush_partial = false}, nullptr);
  double start = 0.0;
  long windows = 0;
  while (auto win = w.Next()) {
    EXPECT_EQ(win->As<Vec>(), MakeVec(8, start));
    start += 4.0;
    ++windows;
  }
  EXPECT_EQ(windows, 4);  // starts 0, 4, 8, 12; start 16 can't fill 8
}

TEST(WindowerTest, HistoryMaxBoundsBufferedElements) {
  mzvec::EnsureRegistered();
  {
    mz::StreamSource src;
    src.Push(mz::Value::Make<Vec>(MakeVec(64)));  // one chunk far wider than the cap
    src.Close();
    mz::Windower w(&src, {.window = 8, .history_max = 16}, nullptr);
    EXPECT_THROW(w.Next(), mz::Error);
  }
  {
    // Chunks within the cap stream through fine: consumed history is dropped.
    mz::StreamSource src;
    PushChunked(src, MakeVec(64), /*chunk=*/8);
    mz::Windower w(&src, {.window = 8, .history_max = 16}, nullptr);
    long windows = 0;
    while (auto win = w.Next()) ++windows;
    EXPECT_EQ(windows, 8);
  }
}

TEST(WindowerTest, InvalidOptionsAndChunkTypesThrow) {
  mzvec::EnsureRegistered();
  mz::StreamSource src;
  EXPECT_THROW((mz::Windower(&src, {.window = 0}, nullptr)), mz::Error);
  EXPECT_THROW((mz::Windower(&src, {.window = 4, .slide = 8}, nullptr)), mz::Error);
  EXPECT_THROW((mz::Windower(&src, {.window = 8, .history_max = 4}, nullptr)), mz::Error);

  // A chunk type with no default split type is rejected at first chunk.
  mz::StreamSource untyped;
  untyped.Push(mz::Value::Make<int>(7));
  untyped.Close();
  mz::Windower w(&untyped, {.window = 4}, nullptr);
  EXPECT_THROW(w.Next(), mz::Error);

  // Chunk-type changes mid-stream are rejected.
  mz::StreamSource mixed;
  mixed.Push(mz::Value::Make<Vec>(MakeVec(4)));
  mixed.Push(mz::Value::Make<Column>(MakeColumn(4)));
  mixed.Close();
  mz::Windower w2(&mixed, {.window = 4}, nullptr);
  EXPECT_TRUE(w2.Next().has_value());
  EXPECT_THROW(w2.Next(), mz::Error);
}

TEST(StreamSourceTest, PushAfterCloseThrows) {
  mz::StreamSource src;
  src.Push(mz::Value::Make<Vec>(MakeVec(1)));
  src.Close();
  EXPECT_TRUE(src.closed());
  EXPECT_THROW(src.Push(mz::Value::Make<Vec>(MakeVec(1))), mz::Error);
  EXPECT_EQ(src.chunks_pushed(), 1);
}

// --- EvalStream: firings, stats, plan-cache steady state ---------------------

TEST(EvalStreamTest, SteadyStateIsRePlanFree) {
  mzvec::EnsureRegistered();
  mz::PlanCache cache;
  mz::RuntimeOptions o = Opts();
  o.plan_cache = &cache;
  mz::Runtime rt(o);

  const long kWindow = 512, kFirings = 8;
  mz::StreamSource src;
  PushChunked(src, MakeVec(kWindow * kFirings), /*chunk=*/100);

  Vec out(kWindow);
  double total = 0.0;
  std::int64_t firings =
      rt.EvalStream(src, {.window = kWindow}, [&](const mz::Value& win, std::int64_t) {
        const Vec& v = win.As<Vec>();
        ASSERT_EQ(v.size(), static_cast<std::size_t>(kWindow));
        mzvec::MulC(kWindow, v.data(), 3.0, out.data());
        mzvec::AddC(kWindow, out.data(), 1.0, out.data());
        total += mzvec::Sum(kWindow, out.data()).get();
      });
  EXPECT_EQ(firings, kFirings);

  // Every firing captures the same shape over equal-size windows: the first
  // builds the plan, every later one instantiates the cached template.
  mz::EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.window_firings, kFirings);
  EXPECT_EQ(s.plans_built, 1);
  EXPECT_EQ(s.plan_cache_misses, 1);
  EXPECT_EQ(s.plan_cache_hits, firings - 1);
  EXPECT_GT(s.window_lag_ns, 0);

  // 3x+1 summed over 0..N-1.
  const double n = static_cast<double>(kWindow * kFirings);
  EXPECT_EQ(total, 3.0 * (n - 1.0) * n / 2.0 + n);
}

TEST(EvalStreamTest, FinalPartialWindowPlansOnceMore) {
  mzvec::EnsureRegistered();
  mz::PlanCache cache;
  mz::RuntimeOptions o = Opts();
  o.plan_cache = &cache;
  mz::Runtime rt(o);

  const long kWindow = 256;
  mz::StreamSource src;
  PushChunked(src, MakeVec(kWindow * 4 + 100), /*chunk=*/333);

  Vec out(kWindow);
  std::int64_t firings =
      rt.EvalStream(src, {.window = kWindow}, [&](const mz::Value& win, std::int64_t firing) {
        const Vec& v = win.As<Vec>();
        if (firing < 4) {
          EXPECT_EQ(v.size(), static_cast<std::size_t>(kWindow));
        } else {
          EXPECT_EQ(v.size(), 100u);
        }
        mzvec::AddC(static_cast<long>(v.size()), v.data(), 1.0, out.data());
      });
  EXPECT_EQ(firings, 5);
  // The partial flush has a different element total, so it fingerprints as a
  // second plan; the four full windows share one template.
  mz::EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_EQ(s.plans_built, 2);
  EXPECT_EQ(s.plan_cache_hits, 3);
}

TEST(EvalStreamTest, MidStreamGetResolvesDeferredMerge) {
  mzvec::EnsureRegistered();
  mzdf::EnsureRegistered();
  mz::RuntimeOptions o = Opts();
  o.pipeline = false;  // stage per op, so intermediates cross a boundary
  mz::Runtime rt(o);

  mz::StreamSource src;
  for (int c = 0; c < 4; ++c) src.Push(mz::Value::Make<Column>(MakeColumn(200, 200.0 * c)));
  src.Close();

  std::int64_t firings =
      rt.EvalStream(src, {.window = 100}, [&](const mz::Value& win, std::int64_t firing) {
        const Column& col = win.As<Column>();
        // Holding `t` live across Evaluate() pins the carried owned piece; the
        // boundary merge is deferred until .get() forces it mid-stream.
        mz::Future<Column> t = mzdf::ColAddC(col, 1.0);
        mz::Future<Column> u = mzdf::ColMulC(t, 2.0);
        Column got = t.get();  // mid-stream resolution of a deferred merge
        ASSERT_EQ(got.size(), 100);
        EXPECT_EQ(got.d(0), 100.0 * static_cast<double>(firing) + 1.0);
        Column final = u.get();
        EXPECT_EQ(final.d(99), 2.0 * (100.0 * static_cast<double>(firing) + 99.0 + 1.0));
      });
  EXPECT_EQ(firings, 8);
}

TEST(EvalStreamTest, LeakedFutureThrowsOnReset) {
  mzvec::EnsureRegistered();
  mzdf::EnsureRegistered();
  mz::Runtime rt(Opts());
  mz::StreamSource src;
  src.Push(mz::Value::Make<Column>(MakeColumn(64)));
  src.Close();

  mz::Future<Column> leaked;
  EXPECT_THROW(rt.EvalStream(src, {.window = 32},
                             [&](const mz::Value& win, std::int64_t) {
                               leaked = mzdf::ColAddC(win.As<Column>(), 1.0);
                             }),
               mz::Error);
  EXPECT_TRUE(leaked.valid());
  leaked = mz::Future<Column>();  // drop the external ref against the cleared graph
}

TEST(EvalStreamTest, ThreadedProducerConsumer) {
  mzvec::EnsureRegistered();
  mz::Runtime rt(Opts());
  mz::StreamSource src;
  const long kChunks = 64, kChunk = 96;

  std::thread producer([&] {
    for (long c = 0; c < kChunks; ++c)
      src.Push(mz::Value::Make<Vec>(MakeVec(kChunk, static_cast<double>(c * kChunk))));
    src.Close();
  });

  Vec out(128);
  double total = 0.0;
  std::int64_t firings =
      rt.EvalStream(src, {.window = 128}, [&](const mz::Value& win, std::int64_t) {
        const Vec& v = win.As<Vec>();
        mzvec::AddC(static_cast<long>(v.size()), v.data(), 0.0, out.data());
        total += mzvec::Sum(static_cast<long>(v.size()), out.data()).get();
      });
  producer.join();
  EXPECT_EQ(firings, kChunks * kChunk / 128);
  const double n = static_cast<double>(kChunks * kChunk);
  EXPECT_EQ(total, (n - 1.0) * n / 2.0);
}

// --- incremental accumulation ------------------------------------------------

TEST(StreamAccumulatorTest, ReduceAddFoldsAcrossFirings) {
  mzvec::EnsureRegistered();
  mz::Runtime rt(Opts());
  mz::StreamSource src;
  PushChunked(src, MakeVec(1000), /*chunk=*/170);

  mz::StreamAccumulator acc("ReduceAdd", {}, &rt.stats());
  std::int64_t firings =
      rt.EvalStream(src, {.window = 250}, [&](const mz::Value& win, std::int64_t) {
        const Vec& v = win.As<Vec>();
        double partial = mzvec::Sum(static_cast<long>(v.size()), v.data()).get();
        acc.Fold(mz::Value::Make<double>(partial));
      });
  EXPECT_EQ(firings, 4);
  ASSERT_TRUE(acc.has_value());
  EXPECT_EQ(acc.value().As<double>(), 999.0 * 1000.0 / 2.0);
  EXPECT_EQ(acc.folds(), 4);
  // Three pairwise merges for four partials, counted in stats.
  EXPECT_EQ(rt.stats().Take().incremental_merges, 3);
}

TEST(StreamAccumulatorTest, ReduceMaxAndMin) {
  mzvec::EnsureRegistered();
  mz::StreamAccumulator mx("ReduceMax");
  mz::StreamAccumulator mn("ReduceMin");
  for (double v : {3.0, -7.0, 11.0, 2.0}) {
    mx.Fold(mz::Value::Make<double>(v));
    mn.Fold(mz::Value::Make<double>(v));
  }
  EXPECT_EQ(mx.value().As<double>(), 11.0);
  EXPECT_EQ(mn.value().As<double>(), -7.0);
}

TEST(StreamAccumulatorTest, GroupSplitReAggregatesAcrossFirings) {
  mzvec::EnsureRegistered();
  mzdf::EnsureRegistered();
  mz::Runtime rt(Opts());

  // key = i % 5, val = i; stream in windows and group-by within each firing.
  const long kRows = 600, kWindow = 150, kKeys = 5;
  std::vector<double> keys, vals;
  for (long i = 0; i < kRows; ++i) {
    keys.push_back(static_cast<double>(i % kKeys));
    vals.push_back(static_cast<double>(i));
  }
  DataFrame all = DataFrame::Make({"k", "v"}, {Column::Doubles(keys), Column::Doubles(vals)});

  mz::StreamSource src;
  for (long r = 0; r < kRows; r += 137) src.Push(mz::Value::Make<DataFrame>(all.Slice(r, std::min(kRows, r + 137))));
  src.Close();

  mz::StreamAccumulator acc("GroupSplit", {/*num_keys=*/1, df::kAggSum}, &rt.stats());
  std::int64_t firings =
      rt.EvalStream(src, {.window = kWindow}, [&](const mz::Value& win, std::int64_t) {
        DataFrame partial = mzdf::GroupByAgg(win.As<DataFrame>(), 0, -1, 1, df::kAggSum).get();
        acc.Fold(mz::Value::Make<DataFrame>(std::move(partial)));
      });
  EXPECT_EQ(firings, kRows / kWindow);

  // Re-aggregate the running value once more to collapse concatenated
  // partials, then compare with the one-shot group-by.
  DataFrame streamed = df::SortByKeys(
      df::ReAggregate(acc.value().As<DataFrame>(), 1, df::kAggSum), 1);
  DataFrame batch = df::SortByKeys(df::GroupByAgg(all, 0, -1, 1, df::kAggSum), 1);
  ASSERT_EQ(streamed.num_rows(), kKeys);
  for (long r = 0; r < kKeys; ++r) {
    EXPECT_EQ(streamed.col(0).d(r), batch.col(0).d(r));
    EXPECT_EQ(streamed.col(1).d(r), batch.col(1).d(r));
  }
}

TEST(StreamAccumulatorTest, RejectsNonIncrementalSplitType) {
  mzvec::EnsureRegistered();
  mzdf::EnsureRegistered();
  // SeriesSplit's merge concatenates — merging a merged value again would
  // double-count nothing but *is* shape-changing; it does not declare
  // incremental_merge, so the accumulator must refuse it.
  mz::StreamAccumulator acc("SeriesSplit");
  EXPECT_THROW(acc.Fold(mz::Value::Make<Column>(MakeColumn(4))), mz::Error);
}

}  // namespace
