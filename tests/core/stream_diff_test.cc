// Differential battery for streaming execution: randomized column pipelines
// are executed (a) as one bounded batch and (b) as N streamed chunks through
// Runtime::EvalStream, across every executor knob combination. The two paths
// must be *byte-identical* — elementwise programs over integer-valued
// doubles are exact under any batching or merge grouping, so any divergence
// is a real windowing/merge bug, not floating-point noise.
//
// Every trial is seeded; the seed and knob combination are in the scoped
// trace, so a failure prints exactly how to reproduce it.
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_cache.h"
#include "core/runtime.h"
#include "core/stream.h"
#include "dataframe/annotated.h"

namespace {

using df::Column;
using Vec = std::vector<double>;

// One elementwise step. Scalar ops fold a constant; binary ops combine with
// the pipeline's original input column (re-read each firing).
struct Op {
  enum Kind { kAddC, kMulC, kGtC, kGeC, kLtC, kAddCol, kSubCol, kMulCol };
  Kind kind;
  double c = 0.0;
};

constexpr double kInputMax = 64.0;
// Keep |values| below 2^30 so even a 2^15-element sum stays exactly
// representable — that is what makes batch and streamed runs bit-equal.
constexpr double kMagCap = 1024.0 * 1024.0 * 1024.0;

std::vector<Op> GenProgram(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> len_dist(1, 6), kind_dist(0, 7);
  std::uniform_int_distribution<int> add_dist(1, 9), mul_dist(2, 3), cmp_dist(0, 40);
  std::vector<Op> prog;
  double bound = kInputMax;  // running bound on |value| after each step
  const int len = len_dist(rng);
  for (int i = 0; i < len; ++i) {
    Op op;
    op.kind = static_cast<Op::Kind>(kind_dist(rng));
    double next = bound;
    switch (op.kind) {
      case Op::kAddC:   op.c = add_dist(rng); next = bound + op.c; break;
      case Op::kMulC:   op.c = mul_dist(rng); next = bound * op.c; break;
      case Op::kGtC:
      case Op::kGeC:
      case Op::kLtC:    op.c = cmp_dist(rng); next = 1.0; break;
      case Op::kAddCol:
      case Op::kSubCol: next = bound + kInputMax; break;
      case Op::kMulCol: next = bound * kInputMax; break;
    }
    if (next > kMagCap) {  // would risk inexact doubles: collapse with a mask
      op.kind = Op::kGtC;
      op.c = cmp_dist(rng);
      next = 1.0;
    }
    bound = next;
    prog.push_back(op);
  }
  return prog;
}

// Captures the program against the current runtime and forces the result.
Column Apply(const Column& input, const std::vector<Op>& prog) {
  mz::Future<Column> cur = mzdf::ColAddC(input, 0.0);
  for (const Op& op : prog) {
    switch (op.kind) {
      case Op::kAddC:   cur = mzdf::ColAddC(cur, op.c); break;
      case Op::kMulC:   cur = mzdf::ColMulC(cur, op.c); break;
      // Comparisons yield int masks; convert back so the pipeline stays
      // double-typed end to end.
      case Op::kGtC:    cur = mzdf::IntToDouble(mzdf::ColGtC(cur, op.c)); break;
      case Op::kGeC:    cur = mzdf::IntToDouble(mzdf::ColGeC(cur, op.c)); break;
      case Op::kLtC:    cur = mzdf::IntToDouble(mzdf::ColLtC(cur, op.c)); break;
      case Op::kAddCol: cur = mzdf::ColAdd(cur, input); break;
      case Op::kSubCol: cur = mzdf::ColSub(cur, input); break;
      case Op::kMulCol: cur = mzdf::ColMul(cur, input); break;
    }
  }
  return cur.get();
}

struct Knobs {
  bool pipeline_stages;
  bool dynamic_scheduling;
};

mz::RuntimeOptions MakeOpts(const Knobs& k, std::int64_t batch_override) {
  mz::RuntimeOptions o;
  o.num_threads = 4;
  o.pedantic = true;
  o.pipeline_stages = k.pipeline_stages;
  o.dynamic_scheduling = k.dynamic_scheduling;
  o.batch_elems_override = batch_override;
  return o;
}

void RunTrial(const Knobs& k, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<Op> prog = GenProgram(rng);

  // Stream geometry: window size, chunk size (deliberately misaligned), and
  // a total that is sometimes an exact multiple of the window and sometimes
  // leaves a partial flush.
  std::uniform_int_distribution<long> win_dist(16, 384);
  const long window = win_dist(rng);
  const long chunk = std::uniform_int_distribution<long>(window / 3 + 1, 2 * window)(rng);
  const long nwin = std::uniform_int_distribution<long>(3, 12)(rng);
  const long remainder = (seed % 2 == 0) ? 0 : std::uniform_int_distribution<long>(1, window - 1)(rng);
  const long total = window * nwin + remainder;
  // Odd small batch override on half the trials forces multi-batch splits
  // even inside small windows; 0 keeps the L2 heuristic.
  const std::int64_t batch_override = (seed % 4 < 2) ? 37 : 0;

  std::ostringstream trace;
  trace << "seed=" << seed << " pipeline_stages=" << k.pipeline_stages
        << " dynamic=" << k.dynamic_scheduling
        << " window=" << window << " chunk=" << chunk << " total=" << total
        << " batch_override=" << batch_override << " prog_len=" << prog.size();
  SCOPED_TRACE(trace.str());

  Vec data(static_cast<std::size_t>(total));
  std::uniform_int_distribution<int> val_dist(0, static_cast<int>(kInputMax));
  for (double& v : data) v = static_cast<double>(val_dist(rng));

  // (a) One bounded batch.
  Vec batch_out;
  double batch_sum = 0.0;
  {
    mz::Runtime rt(MakeOpts(k, batch_override));
    mz::RuntimeScope scope(&rt);
    Column full = Column::Doubles(Vec(data));
    Column out = Apply(full, prog);
    batch_out.assign(out.doubles().begin(), out.doubles().end());
    batch_sum = mzdf::ColSum(out).get();
    rt.Reset();
  }

  // (b) N streamed chunks; per-window sums folded incrementally.
  Vec stream_out;
  stream_out.reserve(static_cast<std::size_t>(total));
  mz::StreamAccumulator acc("ReduceAdd");
  {
    mz::RuntimeOptions o = MakeOpts(k, batch_override);
    mz::PlanCache cache;  // steady-state firings instantiate cached templates
    o.plan_cache = &cache;
    mz::Runtime rt(o);

    mz::StreamSource src;
    for (long off = 0; off < total; off += chunk) {
      long hi = std::min(total, off + chunk);
      src.Push(mz::Value::Make<Column>(
          Column::Doubles(Vec(data.begin() + off, data.begin() + hi))));
    }
    src.Close();

    std::int64_t firings =
        rt.EvalStream(src, {.window = window}, [&](const mz::Value& win, std::int64_t) {
          Column out = Apply(win.As<Column>(), prog);
          stream_out.insert(stream_out.end(), out.doubles().begin(), out.doubles().end());
          acc.Fold(mz::Value::Make<double>(mzdf::ColSum(out).get()));
        });
    ASSERT_EQ(firings, nwin + (remainder > 0 ? 1 : 0));
  }

  // Byte-identical outputs and bit-equal sums.
  ASSERT_EQ(stream_out.size(), batch_out.size());
  ASSERT_EQ(std::memcmp(stream_out.data(), batch_out.data(), batch_out.size() * sizeof(double)), 0)
      << "streamed and batch outputs diverge";
  const double stream_sum = acc.value().As<double>();
  ASSERT_EQ(std::memcmp(&stream_sum, &batch_sum, sizeof(double)), 0)
      << "streamed sum " << stream_sum << " != batch sum " << batch_sum;
}

TEST(StreamDifferentialTest, BatchAndStreamedAreByteIdentical) {
  mzdf::EnsureRegistered();
  const bool flags[2] = {false, true};
  int trials = 0;
  for (bool ps : flags) {
    for (bool dyn : flags) {
      for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        RunTrial({ps, dyn}, seed * 2654435761u + (ps ? 1 : 0) * 97 + (dyn ? 1 : 0) * 7);
        ++trials;
      }
    }
  }
  EXPECT_EQ(trials, 128);  // 100+ distinct randomized pipelines, per the issue
}

}  // namespace
