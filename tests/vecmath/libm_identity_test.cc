// Differential test: vecmath::Exp, Log and Erf against std::exp, std::log
// and std::erf, bit for bit.
//
// On AVX-512F CPUs these kernels run eight-lane ports of glibc's own scalar
// algorithms (src/vecmath/libm_avx512.cc); everywhere else they call libm
// per element. Either way every output must carry the bits libm returns.
// The inputs are dense sweeps of each range the ports handle, every exp and
// log table index, both sides of every range boundary, random bit patterns
// (NaN payloads, subnormals, huge values) and the special values. Each set
// runs out of place and in place, at odd lengths and unaligned offsets, and
// once through the library's threaded split.
#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "vecmath/vecmath.h"

namespace {

using Kernel = void (*)(long, const double*, double*);
using Ref = double (*)(double);

double StdExp(double x) { return std::exp(x); }
double StdLog(double x) { return std::log(x); }
double StdErf(double x) { return std::erf(x); }

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }
double FromBits(std::uint64_t u) { return std::bit_cast<double>(u); }

// n evenly spaced values over [lo, hi].
void Sweep(std::vector<double>* v, double lo, double hi, long n) {
  for (long i = 0; i < n; ++i) {
    v->push_back(lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1));
  }
}

// The 64 doubles either side of x (x included), and their negatives.
void Around(std::vector<double>* v, double x) {
  std::uint64_t b = Bits(x);
  for (std::uint64_t d = 0; d <= 128; ++d) {
    double y = FromBits(b - 64 + d);
    v->push_back(y);
    v->push_back(-y);
  }
}

void RandomBits(std::vector<double>* v, long n, std::uint64_t seed) {
  mz::Rng rng(seed);
  for (long i = 0; i < n; ++i) {
    v->push_back(FromBits(rng.NextU64()));
  }
}

void Specials(std::vector<double>* v) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double x : {0.0, -0.0, inf, -inf, nan, -nan, FromBits(0x7ff80000000d1e55ull),
                   FromBits(0x7ff0000000000001ull), std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(), 1e-310, -3e-320,
                   std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
                   -std::numeric_limits<double>::max(), 1.0, -1.0}) {
    v->push_back(x);
  }
}

std::vector<double> ExpInputs() {
  std::vector<double> v;
  Sweep(&v, -746.0, 710.0, 600001);
  Sweep(&v, -1.0, 1.0, 200001);
  // Every table index: k ln2/128 plus fractions of a step, k in [-400, 400).
  for (int k = -400; k < 400; ++k) {
    for (double f : {-0.5, -0.25, 0.0, 0.3, 0.49}) {
      v.push_back((k + f) * 0x1.62e42fefa39efp-1 / 128);
    }
  }
  for (double edge : {0x1p-54, 512.0, 1024.0, 709.782712893384, 745.1332191019411}) {
    Around(&v, edge);
  }
  RandomBits(&v, 100000, 11);
  Specials(&v);
  return v;
}

std::vector<double> LogInputs() {
  std::vector<double> v;
  Sweep(&v, 0.5, 2.0, 300001);
  Sweep(&v, 0.9, 1.1, 200001);  // the near-1 path and both of its edges
  Sweep(&v, 1e-3, 1e6, 200001);
  // Every table index at exponents from the subnormal edge to the top.
  for (int i = 0; i < 128; ++i) {
    for (std::uint64_t frac : {0ull, 1ull << 30, 1ull << 44, (1ull << 45) - 1}) {
      double z = FromBits(0x3fe6000000000000ull + (std::uint64_t(i) << 45) + frac);
      for (int e = -1022; e <= 1023; e += 31) {
        v.push_back(std::ldexp(z, e));
      }
    }
  }
  for (double edge : {1.0 - 0x1p-4, 1.0 + 0x1.09p-4, 1.0, std::numeric_limits<double>::min(),
                      std::numeric_limits<double>::max()}) {
    Around(&v, edge);
  }
  RandomBits(&v, 100000, 12);
  // Positive random bit patterns: every exponent, mostly the table path.
  const std::size_t end = v.size();
  for (std::size_t i = end - 100000; i < end; ++i) {
    v.push_back(std::fabs(v[i]));
  }
  Specials(&v);
  return v;
}

std::vector<double> ErfInputs() {
  std::vector<double> v;
  Sweep(&v, -7.0, 7.0, 700001);
  Sweep(&v, -1.3, 1.3, 200001);
  // Range edges: 2^-28, 0.84375, 1.25, 1/0.35 (its fdlibm high word) and 6.
  for (double edge : {0x1p-28, 0.84375, 1.25, FromBits(0x4006db6e00000000ull), 6.0}) {
    Around(&v, edge);
  }
  RandomBits(&v, 100000, 13);
  // Black Scholes' d / sqrt(2) with normal inputs: mostly 1.25 <= |x| < 6.
  mz::Rng rng(14);
  for (int i = 0; i < 100000; ++i) {
    v.push_back(rng.NextDouble(-5.0, 5.0));
  }
  Specials(&v);
  return v;
}

std::string Hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a (0x%016llx)", x, static_cast<unsigned long long>(Bits(x)));
  return buf;
}

// Every element of out[0, n) must equal ref(in[i]) bit for bit.
void ExpectSame(const char* what, const double* in, const double* out, long n, Ref ref) {
  long bad = 0;
  for (long i = 0; i < n; ++i) {
    double want = ref(in[i]);
    if (Bits(out[i]) != Bits(want)) {
      if (bad++ < 5) {
        ADD_FAILURE() << what << ": x = " << Hex(in[i]) << " got " << Hex(out[i]) << " want "
                      << Hex(want);
      }
    }
  }
  EXPECT_EQ(bad, 0) << what << ": " << bad << " of " << n << " elements differ";
}

void CheckKernel(const char* name, Kernel k, Ref ref, const std::vector<double>& inputs) {
  const long total = static_cast<long>(inputs.size());
  vecmath::SetNumThreads(1);
  // Out of place and in place, at every offset mod 8 and odd lengths.
  for (long offset : {0L, 1L, 3L, 7L}) {
    const long n = total - offset - (offset + 1) % 8;
    const double* in = inputs.data() + offset;
    std::vector<double> out(static_cast<std::size_t>(n) + 2, 7.0);
    k(n, in, out.data() + 1);
    ExpectSame((std::string(name) + " out of place").c_str(), in, out.data() + 1, n, ref);
    EXPECT_EQ(out[0], 7.0);
    EXPECT_EQ(out[static_cast<std::size_t>(n) + 1], 7.0) << name << " wrote past its end";

    std::vector<double> io(inputs.begin() + offset, inputs.begin() + offset + n);
    k(n, io.data(), io.data());
    ExpectSame((std::string(name) + " in place").c_str(), in, io.data(), n, ref);
  }
  // Short calls: the whole tail path, lengths 0 to 17.
  for (long n = 0; n <= 17; ++n) {
    std::vector<double> out(static_cast<std::size_t>(n) + 1, 7.0);
    k(n, inputs.data() + 5, out.data());
    ExpectSame((std::string(name) + " short").c_str(), inputs.data() + 5, out.data(), n, ref);
    EXPECT_EQ(out[static_cast<std::size_t>(n)], 7.0) << name << " wrote past its end, n=" << n;
  }
  // The library's own threaded split, in place.
  vecmath::SetNumThreads(4);
  std::vector<double> io(inputs.begin() + 1, inputs.end());
  k(total - 1, io.data(), io.data());
  ExpectSame((std::string(name) + " threaded").c_str(), inputs.data() + 1, io.data(), total - 1,
             ref);
  vecmath::SetNumThreads(0);
}

TEST(LibmIdentity, VectorPathActiveWhereSupported) {
  const std::string path = vecmath::TranscendentalPath();
  std::printf("vecmath transcendental path: %s\n", path.c_str());
  EXPECT_TRUE(path == "avx512" || path == "scalar") << path;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    // A self-check failure would silently fall back to scalar libm.
    EXPECT_EQ(path, "avx512");
  }
}

TEST(LibmIdentity, ExpMatchesStdExp) { CheckKernel("Exp", vecmath::Exp, StdExp, ExpInputs()); }
TEST(LibmIdentity, LogMatchesStdLog) { CheckKernel("Log", vecmath::Log, StdLog, LogInputs()); }
TEST(LibmIdentity, ErfMatchesStdErf) { CheckKernel("Erf", vecmath::Erf, StdErf, ErfInputs()); }

// The first Exp/Log/Erf call of a process selects the code path and runs
// its self-check once. Run alone (the libm_first_call_test ctest entry),
// this makes that first call from four threads at once.
TEST(LibmFirstCall, FourThreadsAtOnce) {
  constexpr int kThreads = 4;
  std::vector<double> in;
  Sweep(&in, -6.5, 6.5, 4001);
  std::vector<std::vector<double>> outs(kThreads, std::vector<double>(in.size()));
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      vecmath::Erf(static_cast<long>(in.size()), in.data(), outs[static_cast<std::size_t>(t)].data());
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (const std::vector<double>& out : outs) {
    ExpectSame("Erf first call", in.data(), out.data(), static_cast<long>(in.size()), StdErf);
  }
}

}  // namespace
