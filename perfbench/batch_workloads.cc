// The three batch workloads: one library pipeline evaluated over and over
// through one Mozart runtime with num_threads = logical CPUs, each result
// compared with the eager, unannotated library on the same inputs.
//
// The pipelines are the paper's (Table 2, as in src/workloads), written here
// against the public library APIs so the benchmark owns the outputs it
// checks and can time capture, Evaluate and Future::get separately:
//
//  blackscholes  fig1/fig4a. 30 elementwise vecmath calls over 2^22 doubles
//                per array, 12 arrays = 384 MiB, more than the last-level
//                cache. The whole chain plans as one stage, so no merge runs:
//                the executor's split/task work and memory bandwidth are
//                nearly all of the time; planning is negligible.
//  shallow_water fig4d. A 1024x1024 matrix stencil whose 8 all-"_" rolls per
//                step are serial stage barriers that force merges: stresses
//                the merge tree, barriers and the serial path, where
//                pipelining cannot help (ROADMAP item 5). At fig4d's 640 the
//                run-to-run spread was 2-5x wider: each stage's fork-join was
//                short next to vCPU wake-up jitter.
//  pandas        fig4f+g. Crime Index (filters, owned Column-slice carries,
//                concatenation merges) followed by Birth Analysis (GroupSplit
//                group-by with a merge-only re-aggregation): the executor
//                through owned allocations and non-identity merges. A serial
//                checkpoint after the Crime Index filter splits it into
//                stages whose boundary carries the filtered frame's slices,
//                so boundary elision and the merge it avoids are measured.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "api.h"
#include "baselines/fused.h"
#include "bench.h"
#include "common/aligned.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "core/annotation.h"
#include "core/client.h"
#include "dataframe/annotated.h"
#include "dataframe/ops.h"
#include "workloads/data_gen.h"

namespace perfbench {

int BenchThreads() { return mz::NumLogicalCpus(); }

namespace {

std::unique_ptr<mz::Runtime> MakeRuntime() {
  mz::RuntimeOptions opts;
  opts.num_threads = BenchThreads();
  return std::make_unique<mz::Runtime>(opts);
}

bool SameBytes(const double* a, const double* b, long n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(double)) == 0;
}

// ------------------------------------------------------------ blackscholes --

class BlackScholesBench final : public BatchWorkload {
 public:
  static constexpr long kN = 1L << 22;

  explicit BlackScholesBench(std::uint64_t seed) {
    for (mz::AlignedBuffer<double>* b : All()) {
      *b = mz::AlignedBuffer<double>(static_cast<std::size_t>(kN));
    }
    mz::Rng rng(seed);
    for (long i = 0; i < kN; ++i) {
      price_[i] = rng.NextDouble(20.0, 120.0);
      strike_[i] = rng.NextDouble(20.0, 120.0);
      tte_[i] = rng.NextDouble(0.25, 2.0);
    }
    runtime_ = MakeRuntime();
  }

  void Prepare() override {
    // Every 4093rd output element: cheap, and finer than any batch, so an
    // evaluation that skips a batch fails the check.
    for (long i = 0; i < kN; i += 4093) {
      call_[i] = put_[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }

  void Evaluate(Tracer& tracer, int parent, std::int64_t request) override {
    mz::RuntimeScope scope(runtime_.get());
    {
      ScopedSpan span(tracer, "capture", parent, request);
      Body<true>();
    }
    ScopedSpan span(tracer, "evaluate", parent, request);
    runtime_->Evaluate();
  }

  bool Check() override {
    return SameBytes(call_.data(), ref_call_.data(), kN) &&
           SameBytes(put_.data(), ref_put_.data(), kN);
  }

  void MakeReference() override {
    Body<false>();
    ref_call_ = mz::AlignedBuffer<double>(static_cast<std::size_t>(kN));
    ref_put_ = mz::AlignedBuffer<double>(static_cast<std::size_t>(kN));
    std::memcpy(ref_call_.data(), call_.data(), kN * sizeof(double));
    std::memcpy(ref_put_.data(), put_.data(), kN * sizeof(double));
  }

  void RunBase() override { Body<false>(); }

  void RunFused(int threads) override {
    baselines::BlackScholesFused(kN, price_.data(), strike_.data(), tte_.data(), kRate, kVol,
                                 call_.data(), put_.data(), threads);
  }

  void Corrupt() override { call_[kN / 2] += 1.0; }

  double ComputedBytes() const override { return 12.0 * kN * sizeof(double); }

 private:
  static constexpr double kRate = 0.02;
  static constexpr double kVol = 0.30;

  std::vector<mz::AlignedBuffer<double>*> All() {
    return {&price_, &strike_, &tte_, &call_, &put_, &d1_, &d2_, &nd1_, &nd2_, &disc_,
            &vol_sqrt_, &tmp_};
  }

  template <bool kMozart>
  void Body() {
    using V = Vec<kMozart>;
    const long n = kN;
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    const double rsig = kRate + 0.5 * kVol * kVol;
    V::Div(n, price_.data(), strike_.data(), d1_.data());
    V::Log(n, d1_.data(), d1_.data());
    V::MulC(n, tte_.data(), rsig, tmp_.data());
    V::Add(n, d1_.data(), tmp_.data(), d1_.data());
    V::Sqrt(n, tte_.data(), vol_sqrt_.data());
    V::MulC(n, vol_sqrt_.data(), kVol, vol_sqrt_.data());
    V::Div(n, d1_.data(), vol_sqrt_.data(), d1_.data());
    V::Sub(n, d1_.data(), vol_sqrt_.data(), d2_.data());
    V::MulC(n, d1_.data(), inv_sqrt2, nd1_.data());
    V::Erf(n, nd1_.data(), nd1_.data());
    V::MulC(n, nd1_.data(), 0.5, nd1_.data());
    V::AddC(n, nd1_.data(), 0.5, nd1_.data());
    V::MulC(n, d2_.data(), inv_sqrt2, nd2_.data());
    V::Erf(n, nd2_.data(), nd2_.data());
    V::MulC(n, nd2_.data(), 0.5, nd2_.data());
    V::AddC(n, nd2_.data(), 0.5, nd2_.data());
    V::MulC(n, tte_.data(), -kRate, disc_.data());
    V::Exp(n, disc_.data(), disc_.data());
    V::Mul(n, strike_.data(), disc_.data(), tmp_.data());
    V::Mul(n, price_.data(), nd1_.data(), call_.data());
    V::Mul(n, tmp_.data(), nd2_.data(), put_.data());
    V::Sub(n, call_.data(), put_.data(), call_.data());
    V::RSubC(n, nd1_.data(), 1.0, nd1_.data());
    V::RSubC(n, nd2_.data(), 1.0, nd2_.data());
    V::Mul(n, tmp_.data(), nd2_.data(), put_.data());
    V::Mul(n, price_.data(), nd1_.data(), d1_.data());
    V::Sub(n, put_.data(), d1_.data(), put_.data());
  }

  mz::AlignedBuffer<double> price_, strike_, tte_, call_, put_;
  mz::AlignedBuffer<double> d1_, d2_, nd1_, nd2_, disc_, vol_sqrt_, tmp_;
  mz::AlignedBuffer<double> ref_call_, ref_put_;
};

// ----------------------------------------------------------- shallow_water --

class ShallowWaterBench final : public BatchWorkload {
 public:
  static constexpr long kGrid = 1024;
  static constexpr int kSteps = 4;  // even: the final state lands in h_, u_, v_

  explicit ShallowWaterBench(std::uint64_t seed) {
    for (matrix::Matrix* m : All()) {
      *m = matrix::Matrix(kGrid, kGrid);
    }
    // A Gaussian drop at a seeded position and width over a seeded ripple,
    // with small seeded velocities.
    mz::Rng rng(seed);
    const double cx = rng.NextDouble(0.3, 0.7) * kGrid;
    const double cy = rng.NextDouble(0.3, 0.7) * kGrid;
    const double w = rng.NextDouble(0.08, 0.16) * kGrid;
    for (long r = 0; r < kGrid; ++r) {
      for (long c = 0; c < kGrid; ++c) {
        const double dr = (static_cast<double>(r) - cx) / w;
        const double dc = (static_cast<double>(c) - cy) / w;
        h0_.at(r, c) = 1.0 + 0.5 * std::exp(-(dr * dr + dc * dc)) + rng.NextDouble(0.0, 1e-3);
        u0_.at(r, c) = rng.NextDouble(-1e-3, 1e-3);
        v0_.at(r, c) = rng.NextDouble(-1e-3, 1e-3);
      }
    }
    runtime_ = MakeRuntime();
  }

  // The steps overwrite the state in place: restore it. This also makes a
  // skipped evaluation leave the initial state, which fails the check.
  void Prepare() override {
    Copy(h0_, &h_);
    Copy(u0_, &u_);
    Copy(v0_, &v_);
  }

  void Evaluate(Tracer& tracer, int parent, std::int64_t request) override {
    mz::RuntimeScope scope(runtime_.get());
    {
      ScopedSpan span(tracer, "capture", parent, request);
      Steps<true>();
    }
    ScopedSpan span(tracer, "evaluate", parent, request);
    runtime_->Evaluate();
  }

  bool Check() override {
    return Equal(h_, ref_h_) && Equal(u_, ref_u_) && Equal(v_, ref_v_);
  }

  void MakeReference() override {
    Prepare();
    Steps<false>();
    ref_h_ = h_.Clone();
    ref_u_ = u_.Clone();
    ref_v_ = v_.Clone();
  }

  void RunBase() override {
    Prepare();
    Steps<false>();
  }

  void RunFused(int threads) override {
    Prepare();
    matrix::Matrix *h = &h_, *u = &u_, *v = &v_, *h2 = &h2_, *u2 = &u2_, *v2 = &v2_;
    for (int s = 0; s < kSteps; ++s) {
      baselines::ShallowWaterStepFused(h, u, v, h2, u2, v2, kDt, kDx, kG, threads);
      std::swap(h, h2);
      std::swap(u, u2);
      std::swap(v, v2);
    }
  }

  void Corrupt() override { h_.at(kGrid / 2, kGrid / 3) += 1.0; }

  double ComputedBytes() const override { return 13.0 * kGrid * kGrid * sizeof(double); }

 private:
  static constexpr double kDt = 0.001;
  static constexpr double kDx = 1.0;
  static constexpr double kG = 9.8;

  std::vector<matrix::Matrix*> All() {
    return {&h0_, &u0_, &v0_, &h_, &u_, &v_, &h2_, &u2_, &v2_, &ra_, &rb_, &dudx_, &dvdy_,
            &dhdx_, &dhdy_, &div_};
  }

  static void Copy(const matrix::Matrix& from, matrix::Matrix* to) {
    for (long r = 0; r < kGrid; ++r) {
      std::memcpy(to->row(r), from.row(r), kGrid * sizeof(double));
    }
  }

  static bool Equal(const matrix::Matrix& a, const matrix::Matrix& b) {
    for (long r = 0; r < kGrid; ++r) {
      if (!SameBytes(a.row(r), b.row(r), kGrid)) {
        return false;
      }
    }
    return true;
  }

  // Periodic central differences, as src/workloads ShallowWater.
  template <bool kMozart>
  void Steps() {
    using M = Mat<kMozart>;
    const double inv_2dx = 1.0 / (2.0 * kDx);
    matrix::Matrix *src_h = &h_, *src_u = &u_, *src_v = &v_;
    matrix::Matrix *dst_h = &h2_, *dst_u = &u2_, *dst_v = &v2_;
    for (int s = 0; s < kSteps; ++s) {
      M::RollRows(src_u, 1L, &ra_);
      M::RollRows(src_u, -1L, &rb_);
      M::Sub(&ra_, &rb_, &dudx_);
      M::MulScalar(&dudx_, inv_2dx, &dudx_);
      M::RollCols(src_v, 1L, &ra_);
      M::RollCols(src_v, -1L, &rb_);
      M::Sub(&ra_, &rb_, &dvdy_);
      M::MulScalar(&dvdy_, inv_2dx, &dvdy_);
      M::RollRows(src_h, 1L, &ra_);
      M::RollRows(src_h, -1L, &rb_);
      M::Sub(&ra_, &rb_, &dhdx_);
      M::MulScalar(&dhdx_, inv_2dx, &dhdx_);
      M::RollCols(src_h, 1L, &ra_);
      M::RollCols(src_h, -1L, &rb_);
      M::Sub(&ra_, &rb_, &dhdy_);
      M::MulScalar(&dhdy_, inv_2dx, &dhdy_);
      M::Add(&dudx_, &dvdy_, &div_);
      M::AddScaled(src_h, -kDt, &div_, dst_h);
      M::AddScaled(src_u, -kDt * kG, &dhdx_, dst_u);
      M::AddScaled(src_v, -kDt * kG, &dhdy_, dst_v);
      std::swap(src_h, dst_h);
      std::swap(src_u, dst_u);
      std::swap(src_v, dst_v);
    }
  }

  matrix::Matrix h0_, u0_, v0_;
  matrix::Matrix h_, u_, v_, h2_, u2_, v2_;
  matrix::Matrix ra_, rb_, dudx_, dvdy_, dhdx_, dhdy_, div_;
  matrix::Matrix ref_h_, ref_u_, ref_v_;
};

// ------------------------------------------------------------------ pandas --

// A progress callback the Crime Index pipeline calls between library calls,
// as user code would. Annotated with an unsplittable argument, it runs as a
// serial stage of its own; the stages around it pass the filtered frame's
// owned slices across it instead of concatenating and re-splitting them.
std::int64_t checkpoints = 0;

void Checkpoint(long step) { checkpoints += step; }

const mz::Annotated<void(long)>& AnnotatedCheckpoint() {
  static const mz::Annotated<void(long)> fn(
      Checkpoint, mz::AnnotationBuilder("perfbench.checkpoint").Arg("step", mz::NoSplit()).Build());
  return fn;
}

class PandasBench final : public BatchWorkload {
 public:
  static constexpr long kRows = 2'000'000;  // per table

  explicit PandasBench(std::uint64_t seed)
      : cities_(workloads::MakeCityStats(kRows, seed)),
        births_(workloads::MakeBabyNames(kRows, seed ^ 0x5bd1e995u)) {
    runtime_ = MakeRuntime();
  }

  void Evaluate(Tracer& tracer, int parent, std::int64_t request) override {
    mz::RuntimeScope scope(runtime_.get());
    // Crime Index: intermediates are scoped so their Futures die before
    // evaluation, as Python refcounting drops rebound temporaries.
    mz::Future<double> sum, count;
    {
      ScopedSpan span(tracer, "capture", parent, request);
      auto population = mzdf::ColFromFrame(cities_, 1);
      auto big = mzdf::ColGtC(population, 500000.0);
      auto big_cities = mzdf::FilterRows(cities_, big);
      AnnotatedCheckpoint()(1);
      auto crimes_f = mzdf::ColFromFrame(big_cities, 2);
      auto pop_f = mzdf::ColFromFrame(big_cities, 1);
      auto ratio = mzdf::ColDiv(crimes_f, pop_f);
      auto high = mzdf::ColGtC(ratio, 0.02);
      auto clipped = mzdf::ColWhere(mzdf::MaskNot(high), ratio, 0.032);
      auto index = mzdf::ColMulC(clipped, 1000.0);
      sum = mzdf::ColSum(index);
      count = mzdf::ColCount(index);
    }
    crime_sum_ = TimedGet(sum, tracer, mark_, parent, request);
    crime_count_ = TimedGet(count, tracer, mark_, parent, request);
    // Birth Analysis.
    mz::Future<df::DataFrame> grouped;
    {
      ScopedSpan span(tracer, "capture", parent, request);
      auto names = mzdf::ColFromFrame(births_, 0);
      auto lesl = mzdf::StrStartsWith(names, "Lesl");
      auto filtered = mzdf::FilterRows(births_, lesl);
      grouped = mzdf::GroupByAgg(filtered, 1, 2, 3, df::kAggSum);
    }
    groups_ = Canonical(TimedGet(grouped, tracer, mark_, parent, request));
  }

  // Group sums of integer-valued births are exact in any order, so the
  // groups compare byte for byte; the crime-index sum adds non-integers in
  // a split-dependent order and is compared to a relative 1e-12.
  bool Check() override {
    const double tol = 1e-12 * std::fabs(ref_crime_sum_);
    return crime_count_ == ref_crime_count_ && std::fabs(crime_sum_ - ref_crime_sum_) <= tol &&
           groups_ == ref_groups_;
  }

  void MakeReference() override {
    RunBase();
    ref_crime_sum_ = crime_sum_;
    ref_crime_count_ = crime_count_;
    ref_groups_ = groups_;
  }

  void RunBase() override {
    df::Column big = df::ColGtC(cities_.col("population"), 500000.0);
    df::DataFrame big_cities = df::FilterRows(cities_, big);
    Checkpoint(1);
    df::Column ratio = df::ColDiv(big_cities.col("crimes"), big_cities.col("population"));
    df::Column high = df::ColGtC(ratio, 0.02);
    df::Column clipped = df::ColWhere(df::MaskNot(high), ratio, 0.032);
    df::Column index = df::ColMulC(clipped, 1000.0);
    crime_sum_ = df::ColSum(index);
    crime_count_ = df::ColCount(index);
    df::Column lesl = df::StrStartsWith(births_.col("name"), "Lesl");
    df::DataFrame filtered = df::FilterRows(births_, lesl);
    groups_ = Canonical(df::GroupByAgg(filtered, 1, 2, 3, df::kAggSum));
  }

  void RunFused(int threads) override {
    crime_fused_ = baselines::CrimeIndexFused(cities_, threads);
    groups_fused_ = baselines::BirthAnalysisFused(births_, threads).num_rows();
  }

  void Corrupt() override { crime_sum_ *= 1.0 + 1e-9; }

 private:
  using Group = std::tuple<std::int64_t, std::int64_t, double>;

  // (year, gender, sum) rows in key order: group order is not part of the
  // result, since a split group-by concatenates partial groups.
  static std::vector<Group> Canonical(const df::DataFrame& grouped) {
    std::vector<Group> rows;
    rows.reserve(static_cast<std::size_t>(grouped.num_rows()));
    const df::Column& sums = grouped.col("sum");
    for (long r = 0; r < grouped.num_rows(); ++r) {
      rows.emplace_back(grouped.col(0).i64(r), grouped.col(1).i64(r), sums.d(r));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  df::DataFrame cities_, births_;
  double crime_sum_ = 0, crime_count_ = 0;
  std::vector<Group> groups_;
  double ref_crime_sum_ = 0, ref_crime_count_ = 0;
  std::vector<Group> ref_groups_;
  double crime_fused_ = 0;
  long groups_fused_ = 0;
};

}  // namespace

std::unique_ptr<BatchWorkload> MakeBatchWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "blackscholes") {
    return std::make_unique<BlackScholesBench>(seed);
  }
  if (name == "shallow_water") {
    return std::make_unique<ShallowWaterBench>(seed);
  }
  if (name == "pandas") {
    return std::make_unique<PandasBench>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
