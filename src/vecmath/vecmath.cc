#include "vecmath/vecmath.h"

#include <atomic>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "vecmath/libm_avx512.h"

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

// Runs fn over [0, n) — serially, or statically partitioned across the
// library pool. fn must be pure element-wise over its range.
template <typename LoopBody>
void Dispatch(long n, LoopBody body) {
  if (!ShouldParallelize(n)) {
    body(0, n);
    return;
  }
  int threads = EffectiveThreads();
  long chunk = (n + threads - 1) / threads;
  Pool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < n ? lo + chunk : n;
      if (lo < hi) {
        body(lo, hi);
      }
    }
  });
}

template <typename F>
void MapUnary(long n, const double* a, double* out, F f) {
  Dispatch(n, [=](long lo, long hi) {
    const double* __restrict pa = a;
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = f(pa[i]);
    }
  });
}

// A libm-backed unary kernel: the bit-identical AVX-512 port `vec` when it
// is active (libm_avx512.h), else the scalar call `f` per element.
template <typename F>
void MapLibm(long n, const double* a, double* out, void (*vec)(long, const double*, double*),
             F f) {
  if (!internal::LibmAvx512Active()) {
    MapUnary(n, a, out, f);
    return;
  }
  Dispatch(n, [=](long lo, long hi) { vec(hi - lo, a + lo, out + lo); });
}

template <typename F>
void MapBinary(long n, const double* a, const double* b, double* out, F f) {
  Dispatch(n, [=](long lo, long hi) {
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

}  // namespace

void SetNumThreads(int threads) {
  MZ_CHECK_MSG(threads >= 0, "SetNumThreads requires a non-negative count");
  g_num_threads.store(threads, std::memory_order_relaxed);
}

int GetNumThreads() { return EffectiveThreads(); }

const char* TranscendentalPath() {
  return internal::LibmAvx512Active() ? "avx512" : "scalar";
}

void Sqrt(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::sqrt(x); });
}
void Exp(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::ExpAvx512, [](double x) { return std::exp(x); });
}
void Log(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::LogAvx512, [](double x) { return std::log(x); });
}
void Log1p(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::log1p(x); });
}
void Erf(long n, const double* a, double* out) {
  MapLibm(n, a, out, internal::ErfAvx512, [](double x) { return std::erf(x); });
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
void Abs(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::fabs(x); });
}
void Neg(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return -x; });
}
void Inv(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return 1.0 / x; });
}
void Sqr(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return x * x; });
}
void Floor(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::floor(x); });
}
void Ceil(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return std::ceil(x); });
}

void Add(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x + y; });
}
void Sub(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x - y; });
}
void Mul(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x * y; });
}
void Div(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x / y; });
}
void Pow(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return std::pow(x, y); });
}
void Atan2(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return std::atan2(x, y); });
}
void Hypot(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return std::hypot(x, y); });
}
void Max(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x > y ? x : y; });
}
void Min(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x < y ? x : y; });
}

void AddC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return x + c; });
}
void SubC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return x - c; });
}
void MulC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return x * c; });
}
void DivC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return x / c; });
}
void RSubC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return c - x; });
}
void RDivC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return c / x; });
}
void PowC(long n, const double* a, double c, double* out) {
  MapUnary(n, a, out, [c](double x) { return std::pow(x, c); });
}

void Fma(long n, const double* a, const double* b, const double* c, double* out) {
  Dispatch(n, [=](long lo, long hi) {
    const double* __restrict pa = a;
    const double* __restrict pb = b;
    const double* __restrict pc = c;
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = pa[i] * pb[i] + pc[i];
    }
  });
}

void Axpy(long n, double alpha, const double* x, double* y) {
  Dispatch(n, [=](long lo, long hi) {
    const double* __restrict px = x;
    double* __restrict py = y;
    for (long i = lo; i < hi; ++i) {
      py[i] += alpha * px[i];
    }
  });
}

void Copy(long n, const double* a, double* out) {
  MapUnary(n, a, out, [](double x) { return x; });
}

void Fill(long n, double c, double* out) {
  Dispatch(n, [=](long lo, long hi) {
    double* __restrict po = out;
    for (long i = lo; i < hi; ++i) {
      po[i] = c;
    }
  });
}

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
  Dispatch(n, [=](long lo, long hi) {
    for (long i = lo; i < hi; ++i) {
      out[i] = cond[i] != 0.0 ? if_true[i] : if_false[i];
    }
  });
}

void GreaterThan(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x > y ? 1.0 : 0.0; });
}

void LessThan(long n, const double* a, const double* b, double* out) {
  MapBinary(n, a, b, out, [](double x, double y) { return x < y ? 1.0 : 0.0; });
}

}  // namespace vecmath
