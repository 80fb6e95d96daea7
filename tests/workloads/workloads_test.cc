// Integration tests: every Table-2 workload must produce the same result in
// base (raw library), Mozart (split + pipelined + parallelized), and fused
// (compiler stand-in) modes, across thread counts.
#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.h"
#include "vecmath/vecmath.h"
#include "workloads/analytics.h"
#include "workloads/numerical.h"

namespace {

mz::Runtime* NewRuntime(int threads) {
  mz::RuntimeOptions opts;
  opts.num_threads = threads;
  opts.pedantic = true;
  return new mz::Runtime(opts);
}

// Relative comparison: pipelined/fused execution reassociates floating point.
void ExpectClose(double a, double b, double rel = 1e-9) {
  EXPECT_NEAR(a, b, std::abs(b) * rel + 1e-9) << "a=" << a << " b=" << b;
}

class WorkloadThreads : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadThreads, BlackScholesModesAgree) {
  workloads::BlackScholes w(100000, 1);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, HaversineModesAgree) {
  workloads::Haversine w(100000, 2);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, NBodyModesAgree) {
  workloads::NBody w(256, 3, 3);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base, 1e-7);
  // The fused step does the library's per-element math in the library's
  // order (std::pow(r2, -1.5), row sums in column order), so it matches the
  // eager result exactly.
  w.RunFused(GetParam());
  EXPECT_EQ(w.Checksum(), base);
}

TEST_P(WorkloadThreads, ShallowWaterModesAgree) {
  workloads::ShallowWater w(128, 4, 4);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, DataCleaningModesAgree) {
  workloads::DataCleaning w(50000, 5);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, CrimeIndexModesAgree) {
  workloads::CrimeIndex w(50000, 6);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, BirthAnalysisModesAgree) {
  workloads::BirthAnalysis w(50000, 7);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base);
}

TEST_P(WorkloadThreads, MovieLensModesAgree) {
  workloads::MovieLens w(50000, 8);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  ExpectClose(w.Checksum(), base, 1e-7);
  w.RunFused(GetParam());
  ExpectClose(w.Checksum(), base, 1e-7);
}

TEST_P(WorkloadThreads, SpeechTagModesAgree) {
  workloads::SpeechTag w(800, 40, 9);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);  // integer counts: exact
}

TEST_P(WorkloadThreads, NashvilleModesAgree) {
  workloads::ImageFilter w(workloads::ImageFilter::Filter::kNashville, 320, 240, 10);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);  // uint8 pixels: exact
  w.RunFused(GetParam());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);  // LUT composition is exact
}

TEST_P(WorkloadThreads, GothamModesAgree) {
  workloads::ImageFilter w(workloads::ImageFilter::Filter::kGotham, 320, 240, 11);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(GetParam()));
  w.RunMozart(rt.get());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);
  w.RunFused(GetParam());
  EXPECT_DOUBLE_EQ(w.Checksum(), base);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkloadThreads, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "t" + std::to_string(param_info.param);
                         });

// Mozart over the already-parallel library ("MKL mode") must also agree.
TEST(WorkloadModes, ParallelLibraryUnderMozart) {
  vecmath::SetNumThreads(2);
  workloads::BlackScholes w(200000, 12);
  w.RunBase();
  double base = w.Checksum();
  std::unique_ptr<mz::Runtime> rt(NewRuntime(2));
  w.RunMozart(rt.get());
  EXPECT_NEAR(w.Checksum(), base, std::abs(base) * 1e-9);
  vecmath::SetNumThreads(0);
}

// The pipelining ablation (Table 4's Mozart(-pipe)) must stay correct.
TEST(WorkloadModes, NoPipelineAblationCorrect) {
  workloads::Haversine w(80000, 13);
  w.RunBase();
  double base = w.Checksum();
  mz::RuntimeOptions opts;
  opts.num_threads = 2;
  opts.pipeline = false;
  mz::Runtime rt(opts);
  w.RunMozart(&rt);
  EXPECT_NEAR(w.Checksum(), base, std::abs(base) * 1e-9);
  EXPECT_EQ(rt.stats().Take().stages, workloads::Haversine::NumOperators());
}

}  // namespace
