// Unit tests for the runtime's phase accounting (the Fig. 5 breakdown), both
// standalone EvalStats semantics and the counters a real evaluation populates.
#include "core/stats.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "vecmath/annotated.h"

namespace mz {
namespace {

TEST(EvalStatsTest, SnapshotCopiesCounters) {
  EvalStats stats;
  stats.client_ns = 10;
  stats.planner_ns = 20;
  stats.task_ns = 30;
  stats.stages = 2;
  EvalStats::Snapshot snap = stats.Take();
  EXPECT_EQ(snap.client_ns, 10);
  EXPECT_EQ(snap.planner_ns, 20);
  EXPECT_EQ(snap.task_ns, 30);
  EXPECT_EQ(snap.stages, 2);
  // The snapshot is decoupled from later mutation.
  stats.stages = 99;
  EXPECT_EQ(snap.stages, 2);
}

TEST(EvalStatsTest, TotalSumsOnlyPhaseTimers) {
  EvalStats::Snapshot snap;
  snap.client_ns = 1;
  snap.unprotect_ns = 2;
  snap.planner_ns = 3;
  snap.split_ns = 4;
  snap.task_ns = 5;
  snap.merge_ns = 6;
  snap.stages = 1000;   // counters must not leak into the time total
  snap.batches = 1000;
  EXPECT_EQ(snap.TotalNs(), 21);
}

TEST(EvalStatsTest, ResetZeroesEverything) {
  EvalStats stats;
  stats.merge_ns = 7;
  stats.evaluations = 3;
  stats.nodes_executed = 5;
  stats.Reset();
  EvalStats::Snapshot snap = stats.Take();
  EXPECT_EQ(snap.TotalNs(), 0);
  EXPECT_EQ(snap.evaluations, 0);
  EXPECT_EQ(snap.nodes_executed, 0);
}

TEST(EvalStatsTest, ToStringMentionsEveryPhase) {
  EvalStats stats;
  std::string s = stats.Take().ToString();
  for (const char* phase : {"client", "planner", "split", "task", "merge"}) {
    EXPECT_NE(s.find(phase), std::string::npos) << phase;
  }
}

// The counters that fold by max, listed independently of the table so that
// a row declared with the wrong kind fails the tests below.
bool IsMaxCounter(const std::string& name) {
  return name == "carry_chain_len_max" || name == "footprint_bytes_max" ||
         name == "plan_cache_true_bytes";
}

// Gives every counter a distinct nonzero value (row k gets 100 + k).
void FillDistinct(EvalStats& stats) {
  std::int64_t v = 100;
#define MZ_X(name, kind) stats.name = v++;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X
}

TEST(EvalStatsTest, EveryCounterRoundTrips) {
  EvalStats stats;
  FillDistinct(stats);
  const EvalStats::Snapshot snap = stats.Take();
#define MZ_X(name, kind) EXPECT_EQ(snap.name, stats.name.load()) << #name;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X

  // Self-add: sum rows double, max rows stay put.
  EvalStats::Snapshot twice = snap;
  twice.Add(snap);
#define MZ_X(name, kind) \
  EXPECT_EQ(twice.name, IsMaxCounter(#name) ? snap.name : 2 * snap.name) << #name;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X

  // Adding doubled values: sum rows triple, max rows take the larger one.
  EvalStats::Snapshot doubled;
#define MZ_X(name, kind) doubled.name = 2 * snap.name;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X
  EvalStats::Snapshot mixed = snap;
  mixed.Add(doubled);
#define MZ_X(name, kind) \
  EXPECT_EQ(mixed.name, IsMaxCounter(#name) ? 2 * snap.name : 3 * snap.name) << #name;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X

  // Accumulate into the live counters follows the same rule as Add.
  stats.Accumulate(doubled);
#define MZ_X(name, kind) \
  EXPECT_EQ(stats.name.load(), mixed.name) << #name;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X

  stats.Reset();
#define MZ_X(name, kind) EXPECT_EQ(stats.name.load(), 0) << #name;
  MZ_EVAL_STATS(MZ_X)
#undef MZ_X
}

TEST(EvalStatsTest, ForEachAndToStringCoverEveryCounter) {
  EvalStats stats;
  FillDistinct(stats);
  const EvalStats::Snapshot snap = stats.Take();
  const std::string text = " " + snap.ToString() + " ";
  std::set<std::string> names;
  int rows = 0;
  snap.ForEach([&](const char* name, std::int64_t value, EvalStats::Kind kind) {
    ++rows;
    names.insert(name);
    EXPECT_EQ(kind == EvalStats::Kind::kMax, IsMaxCounter(name)) << name;
    EXPECT_NE(text.find(" " + std::string(name) + "=" + std::to_string(value) + " "),
              std::string::npos)
        << name;
  });
  EXPECT_EQ(rows, 46);
  EXPECT_EQ(names.size(), 46u);
  // No Snapshot field lives outside the table.
  EXPECT_EQ(sizeof(EvalStats::Snapshot), names.size() * sizeof(std::int64_t));
}

TEST(EvalStatsTest, RealEvaluationPopulatesCounters) {
  RuntimeOptions opts;
  opts.num_threads = 2;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  const long n = 1 << 16;
  std::vector<double> a(n, 1.0);
  std::vector<double> out(n);
  mzvec::Sqrt(n, a.data(), out.data());
  mzvec::Exp(n, out.data(), out.data());
  rt.Evaluate();
  EvalStats::Snapshot snap = rt.stats().Take();
  EXPECT_EQ(snap.evaluations, 1);
  EXPECT_EQ(snap.stages, 1);       // Sqrt/Exp pipeline into one stage
  EXPECT_GE(snap.batches, 1);
  EXPECT_EQ(snap.nodes_executed, 2);
  EXPECT_GT(snap.task_ns, 0);
}

TEST(EvalStatsTest, EvaluationsAccumulateAcrossRounds) {
  RuntimeOptions opts;
  opts.num_threads = 1;
  Runtime rt(opts);
  RuntimeScope scope(&rt);
  const long n = 4096;
  std::vector<double> a(n, 1.0);
  std::vector<double> out(n);
  mzvec::Sqrt(n, a.data(), out.data());
  rt.Evaluate();
  mzvec::Exp(n, a.data(), out.data());
  rt.Evaluate();
  rt.Evaluate();  // nothing pending: must not count a third evaluation round
  EvalStats::Snapshot snap = rt.stats().Take();
  EXPECT_EQ(snap.evaluations, 2);
  EXPECT_EQ(snap.nodes_executed, 2);
  rt.stats().Reset();
  EXPECT_EQ(rt.stats().Take().evaluations, 0);
}

}  // namespace
}  // namespace mz
