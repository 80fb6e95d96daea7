// Array kernel audit: the cost of vecmath and matrix kernels in ns per
// element, next to a memcpy floor over the same input bytes.
//
// Each kernel processes 4 Mi elements twice: once as repeated passes over
// one 8 Ki-element slice (an L2-resident batch, the size Mozart's heuristic
// picks for a few live arrays, so the figure is the kernel's compute cost)
// and once over the whole 4 Mi-element input (memory-bound). The floor
// copies the bytes the kernel reads per element with memcpy, cut the same
// way. A kernel far above its floor does per-element work beyond moving its
// data. Exp, Log and Erf run eight-lane ports of glibc's own algorithms on
// AVX-512F CPUs and scalar libm elsewhere (the title names the active path);
// matrix::Pow calls std::pow per element. The Erf row feeds [-1, 1];
// Erf(bs) feeds Black Scholes' d / sqrt(2), of which about 43% fall in
// 1.25 <= |x| < 6, where erf evaluates exp twice.
//
// The libraries run single-threaded here: the figure is one core's cost.
//
// Emits MOZART_BENCH_JSON rows (bench "array_kernels", workload = kernel,
// config = "slice8k" or "whole"): ns_per_elem, memcpy_ns_per_elem, x_floor.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "matrix/matrix.h"
#include "vecmath/vecmath.h"

namespace {

using matrix::Matrix;

constexpr long kCols = 1024;
constexpr long kSliceElems = 8 * kCols;  // 8 Ki elements: 8 matrix rows

double g_sink = 0;

struct Kernel {
  const char* name;
  long bytes_per_elem;                       // input bytes read per element
  std::function<void(long e0, long e1)> run;  // runs over elements [e0, e1)
};

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
               " elements; Exp/Log/Erf path: " + vecmath::TranscendentalPath() + ")");
  vecmath::SetNumThreads(1);
  matrix::SetNumThreads(1);

  const std::vector<double> a = Uniform(n, 0.5, 4.0, 1);
  const std::vector<double> b = Uniform(n, 0.5, 4.0, 2);
  const std::vector<double> c = Uniform(n, -1.0, 1.0, 3);
  const std::vector<double> d = BlackScholesErfArgs(n, 4);
  std::vector<double> out(static_cast<std::size_t>(n));
  const Matrix ma = ToMatrix(a, rows);
  const Matrix mb = ToMatrix(b, rows);
  Matrix mo(rows, kCols);

  const double* pa = a.data();
  const double* pb = b.data();
  const double* pc = c.data();
  const double* pd = d.data();
  double* po = out.data();
  // Matrix kernels run over the row band [e0 / kCols, e1 / kCols); the slice
  // and the whole input are whole rows.
  auto band = [](const Matrix& m, long e0, long e1) {
    return Matrix::RowView(m, e0 / kCols, e1 / kCols);
  };
  const std::vector<Kernel> kernels = {
      {"Add", 16, [&](long e0, long e1) { vecmath::Add(e1 - e0, pa + e0, pb + e0, po + e0); }},
      {"Sub", 16, [&](long e0, long e1) { vecmath::Sub(e1 - e0, pa + e0, pb + e0, po + e0); }},
      {"Mul", 16, [&](long e0, long e1) { vecmath::Mul(e1 - e0, pa + e0, pb + e0, po + e0); }},
      {"Div", 16, [&](long e0, long e1) { vecmath::Div(e1 - e0, pa + e0, pb + e0, po + e0); }},
      {"Max", 16, [&](long e0, long e1) { vecmath::Max(e1 - e0, pa + e0, pb + e0, po + e0); }},
      {"AddC", 8, [&](long e0, long e1) { vecmath::AddC(e1 - e0, pa + e0, 2.0, po + e0); }},
      {"MulC", 8, [&](long e0, long e1) { vecmath::MulC(e1 - e0, pa + e0, 2.0, po + e0); }},
      {"Sqrt", 8, [&](long e0, long e1) { vecmath::Sqrt(e1 - e0, pa + e0, po + e0); }},
      {"Inv", 8, [&](long e0, long e1) { vecmath::Inv(e1 - e0, pa + e0, po + e0); }},
      {"Exp", 8, [&](long e0, long e1) { vecmath::Exp(e1 - e0, pc + e0, po + e0); }},
      {"Log", 8, [&](long e0, long e1) { vecmath::Log(e1 - e0, pa + e0, po + e0); }},
      {"Erf", 8, [&](long e0, long e1) { vecmath::Erf(e1 - e0, pc + e0, po + e0); }},
      {"Erf(bs)", 8, [&](long e0, long e1) { vecmath::Erf(e1 - e0, pd + e0, po + e0); }},
      {"Fma", 24,
       [&](long e0, long e1) { vecmath::Fma(e1 - e0, pa + e0, pb + e0, pc + e0, po + e0); }},
      {"Select", 24,
       [&](long e0, long e1) { vecmath::Select(e1 - e0, pc + e0, pa + e0, pb + e0, po + e0); }},
      {"Axpy", 16, [&](long e0, long e1) { vecmath::Axpy(e1 - e0, 0.5, pa + e0, po + e0); }},
      {"Sum", 8, [&](long e0, long e1) { g_sink += vecmath::Sum(e1 - e0, pa + e0); }},
      {"Dot", 16, [&](long e0, long e1) { g_sink += vecmath::Dot(e1 - e0, pa + e0, pb + e0); }},
      {"mat.Add", 16,
       [&](long e0, long e1) {
         Matrix x = band(ma, e0, e1), y = band(mb, e0, e1), o = band(mo, e0, e1);
         matrix::Add(&x, &y, &o);
       }},
      {"mat.MulScalar", 8,
       [&](long e0, long e1) {
         Matrix x = band(ma, e0, e1), o = band(mo, e0, e1);
         matrix::MulScalar(&x, 0.5, &o);
       }},
      {"mat.AddScaled", 16,
       [&](long e0, long e1) {
         Matrix x = band(ma, e0, e1), y = band(mb, e0, e1), o = band(mo, e0, e1);
         matrix::AddScaled(&x, -0.25, &y, &o);
       }},
      {"mat.Sqrt", 8,
       [&](long e0, long e1) {
         Matrix x = band(ma, e0, e1), o = band(mo, e0, e1);
         matrix::Sqrt(&x, &o);
       }},
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
  bench::Note("(sink " + std::to_string(g_sink + out[0] + mo.at(0, 0)) + ")");
  return 0;
}
