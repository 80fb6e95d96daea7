#include "vecmath/vecmath.h"

#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/cpu.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "vecmath/libm_avx512.h"
#include "vecmath/loops.h"

namespace vecmath {
namespace {

std::atomic<int> g_num_threads{0};  // 0 = hardware concurrency

int EffectiveThreads() {
  int t = g_num_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : mz::NumLogicalCpus();
}

// Library-internal pool (stand-in for MKL's TBB arena). Sized to the
// machine; SetNumThreads caps how many workers a call may use.
mz::ThreadPool& Pool() { return mz::GlobalPool(); }

bool ShouldParallelize(long n) { return EffectiveThreads() > 1 && n >= kParallelGrain; }

// Runs body over [0, n) — serially, or statically partitioned across the
// library pool — as the code built for SIMD path S (common/simd.h). body
// must be pure element-wise over its range.
template <mz::SimdLoops S = mz::SimdLoops::kBaseline, typename LoopBody>
void Dispatch(long n, LoopBody body) {
  if (!ShouldParallelize(n)) {
    mz::RunLoop<S>(body, 0, n);
    return;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      if (lo < hi) {
        mz::RunLoop<S>(body, lo, hi);
      }
    }
  });
}

template <mz::SimdLoops S = mz::SimdLoops::kBaseline, typename F>
void MapUnary(long n, const double* a, double* out, F f) {
  Dispatch<S>(n, [=](long lo, long hi) {
    const double* __restrict pa = a;
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = f(pa[i]);
    }
  });
}

// A libm-backed unary kernel: the bit-identical AVX-512 port `vec` when its
// gate `active` holds (libm_avx512.h), else the scalar call `f` per element.
template <typename F>
void MapLibm(long n, const double* a, double* out, bool (*active)(),
             void (*vec)(long, const double*, double*), F f) {
  if (!active()) {
    MapUnary(n, a, out, f);
    return;
  }
  Dispatch(n, [=](long lo, long hi) { vec(hi - lo, a + lo, out + lo); });
}

template <mz::SimdLoops S = mz::SimdLoops::kBaseline, typename F>
void MapBinary(long n, const double* a, const double* b, double* out, F f) {
  Dispatch<S>(n, [=](long lo, long hi) {
    const double* __restrict pa = a;
    const double* __restrict pb = b;
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = f(pa[i], pb[i]);
    }
  });
}

// Parallel tree reduction: each worker folds its range, partials are folded
// on the caller.
template <typename F>
double Reduce(long n, const double* a, double init, F f) {
  if (!ShouldParallelize(n)) {
    double acc = init;
    for (long i = 0; i < n; ++i) {
      acc = f(acc, a[i]);
    }
    return acc;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  std::vector<double> partials(static_cast<std::size_t>(threads), init);
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      double acc = init;
      for (long i = lo; i < hi; ++i) {
        acc = f(acc, a[i]);
      }
      partials[static_cast<std::size_t>(t)] = acc;
    }
  });
  double acc = init;
  for (double p : partials) {
    acc = f(acc, p);
  }
  return acc;
}

// Loop makers for the ElementwiseLoops table: each turns a captureless
// element operation `Op` into the kernel that maps it over arrays on SIMD
// path S.
template <mz::SimdLoops S, typename Op>
constexpr internal::UnaryLoop Unary(Op) {
  return [](long n, const double* a, double* out) { MapUnary<S>(n, a, out, Op{}); };
}
template <mz::SimdLoops S, typename Op>
constexpr internal::BinaryLoop Binary(Op) {
  return [](long n, const double* a, const double* b, double* out) {
    MapBinary<S>(n, a, b, out, Op{});
  };
}
// out[i] = op(a[i], c).
template <mz::SimdLoops S, typename Op>
constexpr internal::ScalarLoop WithScalar(Op) {
  return [](long n, const double* a, double c, double* out) {
    MapUnary<S>(n, a, out, [c](double x) { return Op{}(x, c); });
  };
}

// a * b + c, rounded twice: -ffp-contract=off keeps it from becoming an FMA.
template <mz::SimdLoops S>
void FmaLoop(long n, const double* a, const double* b, const double* c, double* out) {
  Dispatch<S>(n, [=](long lo, long hi) {
    const double* __restrict pa = a;
    const double* __restrict pb = b;
    const double* __restrict pc = c;
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = pa[i] * pb[i] + pc[i];
    }
  });
}

template <mz::SimdLoops S>
void AxpyLoop(long n, double alpha, const double* x, double* y) {
  Dispatch<S>(n, [=](long lo, long hi) {
    const double* __restrict px = x;
    double* __restrict py = y;
    for (long i = lo; i < hi; ++i) {
      py[i] += alpha * px[i];
    }
  });
}

template <mz::SimdLoops S>
void SelectLoop(long n, const double* cond, const double* if_true, const double* if_false,
                double* out) {
  Dispatch<S>(n, [=](long lo, long hi) {
    const double* __restrict pc = cond;
    const double* __restrict pt = if_true;
    const double* __restrict pf = if_false;
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = pc[i] != 0.0 ? pt[i] : pf[i];
    }
  });
}

template <mz::SimdLoops S>
void FillLoop(long n, double c, double* out) {
  Dispatch<S>(n, [=](long lo, long hi) {
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = c;
    }
  });
}

template <mz::SimdLoops S>
constexpr internal::ElementwiseLoops kLoops = {
    .sqrt = Unary<S>([](double x) { return std::sqrt(x); }),
    .abs = Unary<S>([](double x) { return std::fabs(x); }),
    .neg = Unary<S>([](double x) { return -x; }),
    .inv = Unary<S>([](double x) { return 1.0 / x; }),
    .sqr = Unary<S>([](double x) { return x * x; }),
    .floor = Unary<S>([](double x) { return std::floor(x); }),
    .ceil = Unary<S>([](double x) { return std::ceil(x); }),
    .copy = Unary<S>([](double x) { return x; }),
    .add = Binary<S>([](double x, double y) { return x + y; }),
    .sub = Binary<S>([](double x, double y) { return x - y; }),
    .mul = Binary<S>([](double x, double y) { return x * y; }),
    .div = Binary<S>([](double x, double y) { return x / y; }),
    .max = Binary<S>([](double x, double y) { return x > y ? x : y; }),
    .min = Binary<S>([](double x, double y) { return x < y ? x : y; }),
    .greater_than = Binary<S>([](double x, double y) { return x > y ? 1.0 : 0.0; }),
    .less_than = Binary<S>([](double x, double y) { return x < y ? 1.0 : 0.0; }),
    .add_c = WithScalar<S>([](double x, double c) { return x + c; }),
    .sub_c = WithScalar<S>([](double x, double c) { return x - c; }),
    .mul_c = WithScalar<S>([](double x, double c) { return x * c; }),
    .div_c = WithScalar<S>([](double x, double c) { return x / c; }),
    .rsub_c = WithScalar<S>([](double x, double c) { return c - x; }),
    .rdiv_c = WithScalar<S>([](double x, double c) { return c / x; }),
    .fma = FmaLoop<S>,
    .axpy = AxpyLoop<S>,
    .select = SelectLoop<S>,
    .fill = FillLoop<S>,
};

// The table this process runs, chosen once from CPUID.
const internal::ElementwiseLoops& Loops() {
  static const internal::ElementwiseLoops& loops =
      mz::CpuHasAvx512F() ? internal::Avx512Loops() : internal::BaselineLoops();
  return loops;
}

}  // namespace

namespace internal {
const ElementwiseLoops& BaselineLoops() { return kLoops<mz::SimdLoops::kBaseline>; }
const ElementwiseLoops& Avx512Loops() { return kLoops<mz::SimdLoops::kAvx512>; }
}  // namespace internal

void SetNumThreads(int threads) {
  MZ_CHECK_MSG(threads >= 0, "SetNumThreads requires a non-negative count");
  g_num_threads.store(threads, std::memory_order_relaxed);
}

int GetNumThreads() { return EffectiveThreads(); }

const char* TranscendentalPath() {
  return internal::LibmAvx512Active() ? "avx512" : "scalar";
}

const char* Log1pPath() { return internal::Log1pAvx512Active() ? "avx512" : "scalar"; }

const char* SimdLoopsPath() { return mz::CpuHasAvx512F() ? "avx512" : "baseline"; }

void Sqrt(long n, const double* a, double* out) { Loops().sqrt(n, a, out); }
void Exp(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::LibmAvx512Active, internal::ExpAvx512,
          [](double x) { return std::exp(x); });
}
void Log(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::LibmAvx512Active, internal::LogAvx512,
          [](double x) { return std::log(x); });
}
void Log1p(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::Log1pAvx512Active, internal::Log1pAvx512,
          [](double x) { return std::log1p(x); });
}
void Erf(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::LibmAvx512Active, internal::ErfAvx512,
          [](double x) { return std::erf(x); });
}
void Sin(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::sin(x); });
}
void Cos(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::cos(x); });
}
void Tan(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::tan(x); });
}
void Asin(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::asin(x); });
}
void Acos(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::acos(x); });
}
void Atan(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::atan(x); });
}
void Abs(long n, const double* a, double* out) { Loops().abs(n, a, out); }
void Neg(long n, const double* a, double* out) { Loops().neg(n, a, out); }
void Inv(long n, const double* a, double* out) { Loops().inv(n, a, out); }
void Sqr(long n, const double* a, double* out) { Loops().sqr(n, a, out); }
void Floor(long n, const double* a, double* out) { Loops().floor(n, a, out); }
void Ceil(long n, const double* a, double* out) { Loops().ceil(n, a, out); }

void Add(long n, const double* a, const double* b, double* out) { Loops().add(n, a, b, out); }
void Sub(long n, const double* a, const double* b, double* out) { Loops().sub(n, a, b, out); }
void Mul(long n, const double* a, const double* b, double* out) { Loops().mul(n, a, b, out); }
void Div(long n, const double* a, const double* b, double* out) { Loops().div(n, a, b, out); }
void Pow(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return std::pow(x, y); });
}
void Atan2(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return std::atan2(x, y); });
}
void Hypot(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return std::hypot(x, y); });
}
void Max(long n, const double* a, const double* b, double* out) { Loops().max(n, a, b, out); }
void Min(long n, const double* a, const double* b, double* out) { Loops().min(n, a, b, out); }

void AddC(long n, const double* a, double c, double* out) { Loops().add_c(n, a, c, out); }
void SubC(long n, const double* a, double c, double* out) { Loops().sub_c(n, a, c, out); }
void MulC(long n, const double* a, double c, double* out) { Loops().mul_c(n, a, c, out); }
void DivC(long n, const double* a, double c, double* out) { Loops().div_c(n, a, c, out); }
void RSubC(long n, const double* a, double c, double* out) { Loops().rsub_c(n, a, c, out); }
void RDivC(long n, const double* a, double c, double* out) { Loops().rdiv_c(n, a, c, out); }
void PowC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return std::pow(x, c); });
}

void Fma(long n, const double* a, const double* b, const double* c, double* out) {
  Loops().fma(n, a, b, c, out);
}

void Axpy(long n, double alpha, const double* x, double* y) { Loops().axpy(n, alpha, x, y); }

void Copy(long n, const double* a, double* out) { Loops().copy(n, a, out); }

void Fill(long n, double c, double* out) { Loops().fill(n, c, out); }

double Sum(long n, const double* a) {
  return Reduce(n, a, 0.0, [](double acc, double x) { return acc + x; });
}

double Dot(long n, const double* a, const double* b) {
  if (!ShouldParallelize(n)) {
    double acc = 0.0;
    for (long i = 0; i < n; ++i) {
      acc += a[i] * b[i];
    }
    return acc;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  std::vector<double> partials(static_cast<std::size_t>(threads), 0.0);
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      double acc = 0.0;
      for (long i = lo; i < hi; ++i) {
        acc += a[i] * b[i];
      }
      partials[static_cast<std::size_t>(t)] = acc;
    }
  });
  double acc = 0.0;
  for (double p : partials) {
    acc += p;
  }
  return acc;
}

double MaxReduce(long n, const double* a) {
  MZ_CHECK_MSG(n > 0, "MaxReduce over an empty array");
  return Reduce(n, a, a[0], [](double acc, double x) { return x > acc ? x : acc; });
}

double MinReduce(long n, const double* a) {
  MZ_CHECK_MSG(n > 0, "MinReduce over an empty array");
  return Reduce(n, a, a[0], [](double acc, double x) { return x < acc ? x : acc; });
}

void Select(long n, const double* cond, const double* if_true, const double* if_false,
            double* out) {
  Loops().select(n, cond, if_true, if_false, out);
}

void GreaterThan(long n, const double* a, const double* b, double* out) {
  Loops().greater_than(n, a, b, out);
}

void LessThan(long n, const double* a, const double* b, double* out) {
  Loops().less_than(n, a, b, out);
}

}  // namespace vecmath
