// Array kernel audit: the cost of vecmath and matrix kernels in ns per
// element, next to a memcpy floor over the same input bytes.
//
// Each kernel processes 4 Mi elements twice: once as repeated passes over
// one 8 Ki-element slice (an L2-resident batch, the size Mozart's heuristic
// picks for a few live arrays, so the figure is the kernel's compute cost)
// and once over the whole 4 Mi-element input (memory-bound). The floor
// copies the bytes the kernel reads per element with memcpy, cut the same
// way. A kernel far above its floor does per-element work beyond moving its
// data. Exp, Log, Erf and Log1p run eight-lane ports of glibc's own
// algorithms on AVX-512F CPUs and scalar libm elsewhere (the title names the
// active paths); Sin, Cos, Asin, Atan and matrix::Pow call libm per element.
// The Erf row feeds [-1, 1]; Erf(bs) feeds Black Scholes' d / sqrt(2), of
// which about 43% fall in 1.25 <= |x| < 6, where erf evaluates exp twice.
// Erf(small) feeds [-0.84, 0.84] and Erf(large) [1.25, 6): each stays in one
// of erf's ranges, where the port's range compaction has nothing to sort.
// Log1p feeds [0, 10] (the serving benchmark's inputs) and Log1p(k0) feeds
// [-0.29, 0.41], where log1p skips its argument reduction. The trig rows
// measure Haversine's calls: Sin and Asin feed its half-angle differences
// [-0.11, 0.15], Cos and Atan its latitudes [0.5, 0.9].
//
// The libraries run single-threaded here: the figure is one core's cost.
//
// The IEEE-exact element-wise kernels are built twice, for baseline x86-64
// and for AVX-512F (common/simd.h); their rows run the build the library
// selects. On an AVX-512F CPU a second table times both builds of each of
// those kernels in this one process, alternating a baseline pass with an
// 8-lane pass so that drift on a shared host hits both alike, and prints
// the 8-lane time over the baseline time.
//
// Emits MOZART_BENCH_JSON rows (bench "array_kernels", workload = kernel,
// config = "slice8k" or "whole"): ns_per_elem, memcpy_ns_per_elem, x_floor,
// and for the element-wise kernels on AVX-512F CPUs baseline_ns_per_elem,
// avx512_ns_per_elem and avx512_x_baseline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "matrix/loops.h"
#include "matrix/matrix.h"
#include "vecmath/loops.h"
#include "vecmath/vecmath.h"

namespace {

using matrix::Matrix;

constexpr long kCols = 1024;
constexpr long kSliceElems = 8 * kCols;  // 8 Ki elements: 8 matrix rows

double g_sink = 0;

// One build of the element-wise loops: vecmath's and matrix's tables.
struct LoopTables {
  const vecmath::internal::ElementwiseLoops& vec;
  const matrix::internal::ElementwiseLoops& mat;
};
using Tables = const LoopTables&;
using LoopRun = std::function<void(Tables t, long e0, long e1)>;

const LoopTables kBaseline{vecmath::internal::BaselineLoops(), matrix::internal::BaselineLoops()};
const LoopTables kAvx512{vecmath::internal::Avx512Loops(), matrix::internal::Avx512Loops()};
// The build the public kernels run.
const LoopTables& Selected() { return mz::CpuHasAvx512F() ? kAvx512 : kBaseline; }

struct Kernel {
  const char* name;
  long bytes_per_elem;                       // input bytes read per element
  std::function<void(long e0, long e1)> run;  // runs over elements [e0, e1)
  LoopRun loop = nullptr;  // element-wise kernels: `run` through a given build
};

// An element-wise kernel's row: `run` is `loop` through the selected build.
Kernel Elementwise(const char* name, long bytes_per_elem, LoopRun loop) {
  return {name, bytes_per_elem, [loop](long e0, long e1) { loop(Selected(), e0, e1); }, loop};
}

// Median time of `elems / slice` calls of fn over elements [0, slice), in
// ns/element.
double NsPerElem(const std::function<void(long, long)>& fn, long elems, long slice) {
  double s = bench::TimeSeconds([&] {
    for (long done = 0; done < elems; done += slice) {
      fn(0, slice);
    }
  });
  return s * 1e9 / static_cast<double>(elems);
}

// The medians, in ns/element, of `kPairs` passes of `loop` through each
// build, alternating a baseline pass with an 8-lane one. A pass makes
// `elems / slice` calls over elements [0, slice).
std::pair<double, double> InterleavedNsPerElem(const LoopRun& loop, long elems, long slice) {
  constexpr int kPairs = 7;
  auto pass = [&](const LoopTables& t) {
    mz::WallTimer timer;
    for (long done = 0; done < elems; done += slice) {
      loop(t, 0, slice);
    }
    return timer.ElapsedSeconds() * 1e9 / static_cast<double>(elems);
  };
  std::vector<double> base;
  std::vector<double> wide;
  for (int r = 0; r < kPairs; ++r) {
    base.push_back(pass(kBaseline));
    wide.push_back(pass(kAvx512));
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + kPairs / 2, v.end());
    return v[kPairs / 2];
  };
  return {median(base), median(wide)};
}

std::vector<double> Uniform(long n, double lo, double hi, std::uint64_t seed) {
  mz::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) {
    x = rng.NextDouble(lo, hi);
  }
  return v;
}

// Black Scholes' erf arguments, d1 / sqrt(2) and d2 / sqrt(2) alternately,
// over the workload's input ranges (workloads::BlackScholes).
std::vector<double> BlackScholesErfArgs(long n, std::uint64_t seed) {
  const double rate = 0.02;
  const double vol = 0.30;
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  mz::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    double price = rng.NextDouble(20.0, 120.0);
    double strike = rng.NextDouble(20.0, 120.0);
    double t = rng.NextDouble(0.25, 2.0);
    double vol_sqrt = vol * std::sqrt(t);
    double d1 = (std::log(price / strike) + (rate + 0.5 * vol * vol) * t) / vol_sqrt;
    v[i] = (i % 2 == 0 ? d1 : d1 - vol_sqrt) * inv_sqrt2;
  }
  return v;
}

Matrix ToMatrix(const std::vector<double>& v, long rows) {
  Matrix m(rows, kCols);
  std::memcpy(m.data(), v.data(), static_cast<std::size_t>(rows * kCols) * sizeof(double));
  return m;
}

}  // namespace

int main() {
  const long rows = bench::Scaled(4096);
  const long n = rows * kCols;
  const long slice = std::min(kSliceElems, n);
  bench::Title("Array kernels: ns per element vs a memcpy floor (" + std::to_string(n) +
               " elements; Exp/Log/Erf path: " + vecmath::TranscendentalPath() +
               ", Log1p path: " + vecmath::Log1pPath() +
               ", element-wise loops: " + vecmath::SimdLoopsPath() + ")");
  vecmath::SetNumThreads(1);
  matrix::SetNumThreads(1);

  const std::vector<double> a = Uniform(n, 0.5, 4.0, 1);
  const std::vector<double> b = Uniform(n, 0.5, 4.0, 2);
  const std::vector<double> c = Uniform(n, -1.0, 1.0, 3);
  const std::vector<double> d = BlackScholesErfArgs(n, 4);
  const std::vector<double> e = Uniform(n, 0.0, 10.0, 5);
  const std::vector<double> f = Uniform(n, -0.29, 0.41, 6);
  const std::vector<double> g = Uniform(n, -0.11, 0.15, 7);
  const std::vector<double> h = Uniform(n, 0.5, 0.9, 8);
  const std::vector<double> erf_small = Uniform(n, -0.84, 0.84, 9);
  const std::vector<double> erf_large = Uniform(n, 1.25, 6.0, 10);
  std::vector<double> out(static_cast<std::size_t>(n));
  const Matrix ma = ToMatrix(a, rows);
  const Matrix mb = ToMatrix(b, rows);
  Matrix mo(rows, kCols);

  const double* pa = a.data();
  const double* pb = b.data();
  const double* pc = c.data();
  const double* pd = d.data();
  const double* pe = e.data();
  const double* pf = f.data();
  const double* pg = g.data();
  const double* ph = h.data();
  const double* ps = erf_small.data();
  const double* pl = erf_large.data();
  double* po = out.data();
  // Matrix kernels run over the row band [e0 / kCols, e1 / kCols); the slice
  // and the whole input are whole rows.
  auto band = [](const Matrix& m, long e0, long e1) {
    return Matrix::RowView(m, e0 / kCols, e1 / kCols);
  };
  const std::vector<Kernel> kernels = {
      Elementwise("Add", 16,
                  [&](Tables t, long e0, long e1) {
                    t.vec.add(e1 - e0, pa + e0, pb + e0, po + e0);
                  }),
      Elementwise("Sub", 16,
                  [&](Tables t, long e0, long e1) {
                    t.vec.sub(e1 - e0, pa + e0, pb + e0, po + e0);
                  }),
      Elementwise("Mul", 16,
                  [&](Tables t, long e0, long e1) {
                    t.vec.mul(e1 - e0, pa + e0, pb + e0, po + e0);
                  }),
      Elementwise("Div", 16,
                  [&](Tables t, long e0, long e1) {
                    t.vec.div(e1 - e0, pa + e0, pb + e0, po + e0);
                  }),
      Elementwise("Max", 16,
                  [&](Tables t, long e0, long e1) {
                    t.vec.max(e1 - e0, pa + e0, pb + e0, po + e0);
                  }),
      Elementwise("AddC", 8,
                  [&](Tables t, long e0, long e1) { t.vec.add_c(e1 - e0, pa + e0, 2.0, po + e0); }),
      Elementwise("MulC", 8,
                  [&](Tables t, long e0, long e1) { t.vec.mul_c(e1 - e0, pa + e0, 2.0, po + e0); }),
      Elementwise("Sqrt", 8,
                  [&](Tables t, long e0, long e1) { t.vec.sqrt(e1 - e0, pa + e0, po + e0); }),
      Elementwise("Inv", 8,
                  [&](Tables t, long e0, long e1) { t.vec.inv(e1 - e0, pa + e0, po + e0); }),
      {"Exp", 8, [&](long e0, long e1) { vecmath::Exp(e1 - e0, pc + e0, po + e0); }},
      {"Log", 8, [&](long e0, long e1) { vecmath::Log(e1 - e0, pa + e0, po + e0); }},
      {"Erf", 8, [&](long e0, long e1) { vecmath::Erf(e1 - e0, pc + e0, po + e0); }},
      {"Erf(bs)", 8, [&](long e0, long e1) { vecmath::Erf(e1 - e0, pd + e0, po + e0); }},
      {"Erf(small)", 8, [&](long e0, long e1) { vecmath::Erf(e1 - e0, ps + e0, po + e0); }},
      {"Erf(large)", 8, [&](long e0, long e1) { vecmath::Erf(e1 - e0, pl + e0, po + e0); }},
      {"Log1p", 8, [&](long e0, long e1) { vecmath::Log1p(e1 - e0, pe + e0, po + e0); }},
      {"Log1p(k0)", 8, [&](long e0, long e1) { vecmath::Log1p(e1 - e0, pf + e0, po + e0); }},
      {"Sin", 8, [&](long e0, long e1) { vecmath::Sin(e1 - e0, pg + e0, po + e0); }},
      {"Cos", 8, [&](long e0, long e1) { vecmath::Cos(e1 - e0, ph + e0, po + e0); }},
      {"Asin", 8, [&](long e0, long e1) { vecmath::Asin(e1 - e0, pg + e0, po + e0); }},
      {"Atan", 8, [&](long e0, long e1) { vecmath::Atan(e1 - e0, ph + e0, po + e0); }},
      Elementwise("Fma", 24,
                  [&](Tables t, long e0, long e1) {
                    t.vec.fma(e1 - e0, pa + e0, pb + e0, pc + e0, po + e0);
                  }),
      Elementwise("Select", 24,
                  [&](Tables t, long e0, long e1) {
                    t.vec.select(e1 - e0, pc + e0, pa + e0, pb + e0, po + e0);
                  }),
      Elementwise("Axpy", 16,
                  [&](Tables t, long e0, long e1) { t.vec.axpy(e1 - e0, 0.5, pa + e0, po + e0); }),
      {"Sum", 8, [&](long e0, long e1) { g_sink += vecmath::Sum(e1 - e0, pa + e0); }},
      {"Dot", 16, [&](long e0, long e1) { g_sink += vecmath::Dot(e1 - e0, pa + e0, pb + e0); }},
      Elementwise("mat.Add", 16,
                  [&](Tables t, long e0, long e1) {
                    Matrix x = band(ma, e0, e1), y = band(mb, e0, e1), o = band(mo, e0, e1);
                    t.mat.add(&x, &y, &o);
                  }),
      Elementwise("mat.MulScalar", 8,
                  [&](Tables t, long e0, long e1) {
                    Matrix x = band(ma, e0, e1), o = band(mo, e0, e1);
                    t.mat.mul_scalar(&x, 0.5, &o);
                  }),
      Elementwise("mat.AddScaled", 16,
                  [&](Tables t, long e0, long e1) {
                    Matrix x = band(ma, e0, e1), y = band(mb, e0, e1), o = band(mo, e0, e1);
                    t.mat.add_scaled(&x, -0.25, &y, &o);
                  }),
      Elementwise("mat.Sqrt", 8,
                  [&](Tables t, long e0, long e1) {
                    Matrix x = band(ma, e0, e1), o = band(mo, e0, e1);
                    t.mat.sqrt(&x, &o);
                  }),
      {"mat.Pow", 8,
       [&](long e0, long e1) {
         Matrix x = band(ma, e0, e1), o = band(mo, e0, e1);
         matrix::Pow(&x, -1.5, &o);
       }},
      {"mat.RollRows", 8,
       [&](long e0, long e1) {
         Matrix o = band(mo, e0, e1);
         matrix::RollRows(&ma, 1, &o);
       }},
      {"mat.RollCols", 8,
       [&](long e0, long e1) {
         Matrix x = band(ma, e0, e1), o = band(mo, e0, e1);
         matrix::RollCols(&x, 1, &o);
       }},
  };

  long max_bpe = 0;
  for (const Kernel& k : kernels) {
    max_bpe = std::max(max_bpe, k.bytes_per_elem);
  }
  std::vector<char> src(static_cast<std::size_t>(n * max_bpe), 1);
  std::vector<char> dst(src.size());

  std::printf("  %-14s %6s  %12s %10s %8s  %12s %10s %8s\n", "kernel", "B/elem",
              "slice ns/el", "floor", "x floor", "whole ns/el", "floor", "x floor");
  for (const Kernel& k : kernels) {
    auto copy = [&](long e0, long e1) {
      std::memcpy(dst.data() + e0 * k.bytes_per_elem, src.data() + e0 * k.bytes_per_elem,
                  static_cast<std::size_t>((e1 - e0) * k.bytes_per_elem));
    };
    std::printf("  %-14s %6ld", k.name, k.bytes_per_elem);
    for (const auto& [config, len] : {std::pair<const char*, long>{"slice8k", slice},
                                      std::pair<const char*, long>{"whole", n}}) {
      double ns = NsPerElem(k.run, n, len);
      double floor = NsPerElem(copy, n, len);
      double ratio = floor > 0 ? ns / floor : 0.0;
      std::printf("  %12.2f %10.2f %8.1f", ns, floor, ratio);
      bench::Metric("array_kernels", k.name, config, "ns_per_elem", ns);
      bench::Metric("array_kernels", k.name, config, "memcpy_ns_per_elem", floor);
      bench::Metric("array_kernels", k.name, config, "x_floor", ratio);
    }
    std::printf("\n");
  }

  if (mz::CpuHasAvx512F()) {
    std::printf("\n  8-lane vs baseline element-wise loops, interleaved (ns/element)\n");
    std::printf("  %-14s  %12s %10s %8s  %12s %10s %8s\n", "kernel", "slice base", "8-lane",
                "ratio", "whole base", "8-lane", "ratio");
    for (const Kernel& k : kernels) {
      if (k.loop == nullptr) {
        continue;
      }
      std::printf("  %-14s", k.name);
      for (const auto& [config, len] : {std::pair<const char*, long>{"slice8k", slice},
                                        std::pair<const char*, long>{"whole", n}}) {
        auto [base, wide] = InterleavedNsPerElem(k.loop, n, len);
        double ratio = base > 0 ? wide / base : 0.0;
        std::printf("  %12.2f %10.2f %8.2f", base, wide, ratio);
        bench::Metric("array_kernels", k.name, config, "baseline_ns_per_elem", base);
        bench::Metric("array_kernels", k.name, config, "avx512_ns_per_elem", wide);
        bench::Metric("array_kernels", k.name, config, "avx512_x_baseline", ratio);
      }
      std::printf("\n");
    }
  } else {
    bench::Note("(no AVX-512F: the element-wise loops have only their baseline build here)");
  }
  bench::Note("(sink " + std::to_string(g_sink + out[0] + mo.at(0, 0)) + ")");
  return 0;
}
