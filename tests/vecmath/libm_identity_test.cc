// Differential test: vecmath::Exp, Log, Erf and Log1p against std::exp,
// std::log, std::erf and std::log1p, bit for bit.
//
// On AVX-512F CPUs these kernels run eight-lane ports of glibc's own scalar
// algorithms (src/vecmath/libm_avx512.cc); everywhere else they call libm
// per element. Either way every output must carry the bits libm returns.
// The inputs are dense sweeps of each range the ports handle, every exp and
// log table index, both sides of every range boundary, random bit patterns
// (NaN payloads, subnormals, huge values) and the special values. Each set
// runs out of place and in place, at odd lengths and unaligned offsets, and
// once through the library's threaded split. Erf also gets inputs that
// interleave its ranges lane by lane, at lengths around its chunk size.
#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
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
double StdLog1p(double x) { return std::log1p(x); }

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

std::vector<double> Log1pInputs() {
  std::vector<double> v;
  Sweep(&v, -1.0, 12.0, 700001);
  Sweep(&v, -0.3, 0.42, 200001);  // the k = 0 range and both of its edges
  // Branch edges: -1, -0.2929 and 0.41422 (their fdlibm high words),
  // 2^-29, 2^-54 and 2^53.
  for (double edge : {-1.0, FromBits(0xbfd2bec400000000ull), FromBits(0x3fda827a00000000ull),
                      0x1p-29, 0x1p-54, 0x1p53}) {
    Around(&v, edge);
  }
  // u = 1 + x is halved from mantissa high bits 0x6a09e (about sqrt(2)).
  for (int e = -1; e <= 20; ++e) {
    Around(&v, std::ldexp(FromBits(0x3ff6a09e00000000ull), e) - 1.0);
  }
  // x = 2^k - 1 and their neighbours, and u = 1 + x anywhere on libm's
  // hu == 0 branch (|f| < 2^-20): u's top 20 mantissa bits all zero, or,
  // just below 2^k, all one but the last two.
  mz::Rng rng(16);
  for (int e = 1; e <= 60; ++e) {
    Around(&v, std::ldexp(1.0, e) - 1.0);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t low = rng.NextU64() & 0xffffffffull;
      const std::uint64_t above = (std::uint64_t(0x3ff + e) << 52) | low;
      const std::uint64_t below = (std::uint64_t(0x3ff + e - 1) << 52) |
                                  (std::uint64_t(0xffffd + i % 3) << 32) | low;
      v.push_back(FromBits(above) - 1.0);
      v.push_back(FromBits(below) - 1.0);
    }
  }
  RandomBits(&v, 100000, 15);
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
  const std::string log1p_path = vecmath::Log1pPath();
  std::printf("vecmath transcendental path: %s, log1p path: %s\n", path.c_str(),
              log1p_path.c_str());
  EXPECT_TRUE(path == "avx512" || path == "scalar") << path;
  EXPECT_TRUE(log1p_path == "avx512" || log1p_path == "scalar") << log1p_path;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    // A self-check failure would silently fall back to scalar libm.
    EXPECT_EQ(path, "avx512");
    EXPECT_EQ(log1p_path, "avx512");
  }
}

TEST(LibmIdentity, ExpMatchesStdExp) { CheckKernel("Exp", vecmath::Exp, StdExp, ExpInputs()); }
TEST(LibmIdentity, LogMatchesStdLog) { CheckKernel("Log", vecmath::Log, StdLog, LogInputs()); }
TEST(LibmIdentity, ErfMatchesStdErf) { CheckKernel("Erf", vecmath::Erf, StdErf, ErfInputs()); }
TEST(LibmIdentity, Log1pMatchesStdLog1p) {
  CheckKernel("Log1p", vecmath::Log1p, StdLog1p, Log1pInputs());
}

// Erf sorts the lanes of each chunk by fdlibm range before it evaluates them
// (ErfAvx512 in libm_avx512.cc), so these inputs interleave the ranges in
// every way its cursors must track. The lanes fall in five classes: the
// three vector ranges, the arguments erf leaves to std::erf (|x| >= 6, NaN,
// infinities) and the tiny ones (|x| < 2^-28, zeros, subnormals), which go
// to std::erf as well. No argument takes the large range's exp calls off
// their main path (their arguments stay in [-36.6, -2.1] and
// [-0.22, -0.023]), so that fallback has no class here.
enum ErfClass { kErfSmall, kErfMid, kErfLarge, kErfSpecial, kErfTiny, kErfClasses };

constexpr long kErfChunk = 512;  // ErfAvx512's sorted chunk

double ErfClassValue(int c, mz::Rng* rng) {
  const double sign = rng->NextBool(0.5) ? -1.0 : 1.0;
  switch (c) {
    case kErfSmall:
      return sign * rng->NextDouble(0x1p-20, 0.84375);
    case kErfMid:
      return sign * rng->NextDouble(0.84375, 1.25);
    case kErfLarge:
      return sign * rng->NextDouble(1.25, 6.0);
    case kErfSpecial: {
      const double inf = std::numeric_limits<double>::infinity();
      const double v[] = {6.0, 6.5, 27.0, 1e300, inf, std::numeric_limits<double>::quiet_NaN()};
      return sign * v[rng->NextBounded(6)];
    }
    default: {
      const double v[] = {0.0, 0x1p-29, 1e-300, std::numeric_limits<double>::denorm_min()};
      return sign * v[rng->NextBounded(4)];
    }
  }
}

// Element i of a layout has class layout(i): each layout starts at the call's
// first element, as the chunks do.
using ErfLayout = std::function<int(long)>;

std::vector<ErfLayout> ErfLayouts() {
  std::vector<ErfLayout> layouts;
  // Lane j of vector v holds class (j + v) mod 5: every vector holds every
  // class, and every lane position sees every class.
  layouts.push_back([](long i) { return static_cast<int>((i % 8 + i / 8) % kErfClasses); });
  for (int r : {kErfSmall, kErfMid, kErfLarge}) {
    // One range alone: a direct run, then one with a single special lane,
    // and one where a lane near each chunk's end lies in another range.
    layouts.push_back([r](long) { return r; });
    layouts.push_back([r](long i) { return i == kErfChunk / 2 ? int{kErfSpecial} : r; });
    layouts.push_back([r](long i) { return i % kErfChunk == kErfChunk - 3 ? (r + 1) % 3 : r; });
    // The other two ranges, irregularly mixed: range r stays empty.
    layouts.push_back([r](long i) { return (r + 1 + static_cast<int>((i * i + i / 5) % 2)) % 3; });
  }
  // 8 + k lanes of one class per chunk, scattered (37 is prime to the chunk
  // size), the rest of another: the minority's buffer ends k lanes into a
  // vector, the majority's 8 - k.
  for (long k = 1; k <= 7; ++k) {
    for (std::pair<int, int> p : {std::pair{kErfMid, kErfLarge}, std::pair{kErfSmall, kErfMid},
                                  std::pair{kErfSpecial, kErfSmall}}) {
      layouts.push_back([k, p](long i) {
        return (i % kErfChunk) * 37 % kErfChunk < 8 + k ? p.first : p.second;
      });
    }
  }
  return layouts;
}

std::vector<double> ErfLayoutValues(const ErfLayout& layout, long n, mz::Rng* rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = ErfClassValue(layout(i), rng);
  }
  return v;
}

TEST(LibmIdentity, ErfInterleavedRangesMatchStdErf) {
  mz::Rng rng(17);
  vecmath::SetNumThreads(1);
  std::vector<double> all;
  for (const ErfLayout& layout : ErfLayouts()) {
    for (long n : {kErfChunk - 1, kErfChunk, kErfChunk + 1, 2 * kErfChunk + 7}) {
      const std::vector<double> in = ErfLayoutValues(layout, n, &rng);
      all.insert(all.end(), in.begin(), in.end());
      for (long offset : {0L, 1L, 3L, 7L}) {
        std::vector<double> src(static_cast<std::size_t>(offset), 0.5);
        src.insert(src.end(), in.begin(), in.end());
        std::vector<double> out(static_cast<std::size_t>(n + offset) + 1, 7.0);
        vecmath::Erf(n, src.data() + offset, out.data() + offset);
        ExpectSame("Erf interleaved, out of place", in.data(), out.data() + offset, n, StdErf);
        EXPECT_EQ(out[static_cast<std::size_t>(n + offset)], 7.0) << "wrote past its end, n=" << n;
        vecmath::Erf(n, src.data() + offset, src.data() + offset);
        ExpectSame("Erf interleaved, in place", in.data(), src.data() + offset, n, StdErf);
      }
    }
  }
  // Every layout again, through the library's threaded split, in place.
  while (static_cast<long>(all.size()) < 4 * vecmath::kParallelGrain) {
    const std::vector<double> copy = all;
    all.insert(all.end(), copy.begin(), copy.end());
  }
  vecmath::SetNumThreads(4);
  std::vector<double> io = all;
  vecmath::Erf(static_cast<long>(io.size()), io.data(), io.data());
  ExpectSame("Erf interleaved, threaded", all.data(), io.data(), static_cast<long>(all.size()),
             StdErf);
  vecmath::SetNumThreads(0);
}

// The first Exp/Log/Erf call of a process selects the code path and runs
// its self-check once, and so does the first Log1p call. Run alone (the
// libm_first_call_test ctest entry), this makes both first calls from four
// threads at once.
TEST(LibmFirstCall, FourThreadsAtOnce) {
  constexpr int kThreads = 4;
  std::vector<double> in;
  Sweep(&in, -6.5, 6.5, 4001);
  const long n = static_cast<long>(in.size());
  std::vector<std::vector<double>> erfs(kThreads, std::vector<double>(in.size()));
  std::vector<std::vector<double>> log1ps(kThreads, std::vector<double>(in.size()));
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      vecmath::Erf(n, in.data(), erfs[static_cast<std::size_t>(t)].data());
      start.arrive_and_wait();
      vecmath::Log1p(n, in.data(), log1ps[static_cast<std::size_t>(t)].data());
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ExpectSame("Erf first call", in.data(), erfs[static_cast<std::size_t>(t)].data(), n, StdErf);
    ExpectSame("Log1p first call", in.data(), log1ps[static_cast<std::size_t>(t)].data(), n,
               StdLog1p);
  }
}

}  // namespace
