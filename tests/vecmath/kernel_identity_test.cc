// Byte-identity golden test for the vecmath and matrix kernels.
//
// Every case runs one kernel over seeded inputs and folds every output byte
// into an FNV-1a digest. The element-wise inputs carry the values where a
// compiler's choice of instructions could show: NaNs (see kDefaultNaN), ±inf,
// ±0.0, subnormals, DBL_MAX/DBL_MIN, and negatives fed to Sqrt/Log. Lengths
// are odd and every pointer starts at an element offset, so vectorized loops
// run their peel and remainder paths too; matrix cases read and write row
// and column views with a non-zero offset and a stride wider than the row.
// Reductions get finite inputs spanning many magnitudes, so any change to
// the summation order changes the digest.
//
// A build-flag or kernel change must reproduce these digests exactly; a
// mismatch prints the new digest in the same form as the table below. The
// transcendental cases (Exp, Log, Erf, Sin, Pow, ...) pin glibc's scalar
// libm results, so those digests are specific to that C library and to the
// variant of each function it selects for the CPU (FMA or not).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "matrix/matrix.h"
#include "vecmath/vecmath.h"

namespace {

using matrix::Matrix;

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Doubles(const double* p, long n) { Bytes(p, static_cast<std::size_t>(n) * sizeof(double)); }
  void Double(double x) { Bytes(&x, sizeof(x)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t Digest(const Matrix& m) {
  Fnv1a h;
  for (long r = 0; r < m.rows(); ++r) {
    h.Doubles(m.row(r), m.cols());
  }
  return h.value();
}

constexpr long kN = 1001;  // odd: vector loops run a scalar remainder
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kSub = std::numeric_limits<double>::denorm_min();
// x86's default NaN (sign set, quiet, no payload): what every invalid
// operation returns. When both operands of an add or a multiply are NaNs,
// which one's bits survive depends on the operand order the compiler chose,
// and that differs between builds (an ASan build commutes some adds). The
// inputs of multi-operand kernels therefore carry only this NaN, so the
// order cannot show; single-operand kernels also get +NaN and a payload NaN.
constexpr double kDefaultNaN = -kNaN;
constexpr double kPayloadNaN = std::bit_cast<double>(0x7ff80000000d1e55ull);

// Seeded values in [-100, 100) with the special values spliced in at
// seed-dependent positions; `all_nans` adds the NaNs other than x86's
// default to the specials.
std::vector<double> Mixed(std::uint64_t seed, bool all_nans = false) {
  static const double kSpecial[] = {kDefaultNaN, kInf,   -kInf, 0.0,    -0.0,   kSub,
                                    -kSub,       1e-310, -3e-320,
                                    std::numeric_limits<double>::max(),
                                    std::numeric_limits<double>::min(),
                                    -1.0,        1.0,    0.5,   -0.5,   1e300,  -1e-300};
  static const double kOtherNaNs[] = {kNaN, kPayloadNaN};
  constexpr std::size_t kNumSpecial = sizeof(kSpecial) / sizeof(kSpecial[0]);
  const std::size_t num_special = kNumSpecial + (all_nans ? 2 : 0);
  mz::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(kN) + 8);
  for (double& x : v) {
    if (!rng.NextBool(0.15)) {
      x = rng.NextDouble(-100, 100);
      continue;
    }
    std::size_t k = rng.NextBounded(num_special);
    x = k < kNumSpecial ? kSpecial[k] : kOtherNaNs[k - kNumSpecial];
  }
  return v;
}

// Finite values spanning ~60 orders of magnitude, both signs: summation
// order changes their sum's low bits.
std::vector<double> Spread(std::uint64_t seed) {
  mz::Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(kN) + 8);
  for (double& x : v) {
    double mag = std::ldexp(rng.NextDouble(1.0, 2.0), static_cast<int>(rng.NextInt(-100, 100)));
    x = rng.NextBool(0.5) ? -mag : mag;
  }
  return v;
}

struct Inputs {
  std::vector<double> a = Mixed(101);
  std::vector<double> b = Mixed(102);
  std::vector<double> c = Mixed(103);
  std::vector<double> cond = Mixed(104);
  std::vector<double> r = Spread(105);
  std::vector<double> s = Spread(106);
  std::vector<double> u = Mixed(107, /*all_nans=*/true);  // single-operand kernels
};

const Inputs& In() {
  static const Inputs inputs;
  return inputs;
}

// Input pointers start one to three elements into their buffers.
const double* A() { return In().a.data() + 1; }
const double* B() { return In().b.data() + 3; }
const double* C() { return In().c.data() + 2; }

using UnaryK = void (*)(long, const double*, double*);
using BinaryK = void (*)(long, const double*, const double*, double*);
using ScalarK = void (*)(long, const double*, double, double*);

// Runs `fill` into an output that starts two elements into its buffer and
// digests the kN written elements.
std::uint64_t Out(const std::function<void(double*)>& fill) {
  std::vector<double> out(static_cast<std::size_t>(kN) + 8, 7.0);
  fill(out.data() + 2);
  Fnv1a h;
  h.Doubles(out.data() + 2, kN);
  return h.value();
}

std::uint64_t Unary(UnaryK k) {
  return Out([k](double* o) { k(kN, In().u.data() + 1, o); });
}
// The unary case with `out` aliasing the input, as in MKL's
// vdLn(n, a, a); it must reproduce the out-of-place digest.
std::uint64_t UnaryInPlace(UnaryK k) {
  std::vector<double> io = In().u;
  k(kN, io.data() + 1, io.data() + 1);
  Fnv1a h;
  h.Doubles(io.data() + 1, kN);
  return h.value();
}
std::uint64_t Binary(BinaryK k) {
  return Out([k](double* o) { k(kN, A(), B(), o); });
}
// Each scalar kernel runs with a finite, a negative-zero and a NaN scalar.
std::uint64_t Scalar(ScalarK k) {
  Fnv1a h;
  for (double c : {2.5, -0.0, kDefaultNaN}) {
    h.Bytes(&c, sizeof(c));
    std::uint64_t d = Out([k, c](double* o) { k(kN, A(), c, o); });
    h.Bytes(&d, sizeof(d));
  }
  return h.value();
}
std::uint64_t Reduction(const std::function<double(const double*)>& k) {
  Fnv1a h;
  h.Double(k(In().r.data() + 1));  // finite, order-sensitive
  h.Double(k(A()));                // specials
  return h.value();
}

// --- matrix inputs: 29 x 37 parents, read through offset views ---

constexpr long kRows = 29;
constexpr long kCols = 37;

Matrix MakeMatrix(const std::vector<double>& src, long rows, long cols) {
  Matrix m(rows, cols);
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      m.at(r, c) = src[static_cast<std::size_t>((r * cols + c) % kN)];
    }
  }
  return m;
}

struct MatInputs {
  Matrix ma = MakeMatrix(In().a, kRows, kCols);
  Matrix mb = MakeMatrix(In().b, kRows, kCols);
  Matrix mr = MakeMatrix(In().r, kRows, kCols);
  // Rows [3, 26) of each: a row view at an offset.
  Matrix va = Matrix::RowView(ma, 3, 26);
  Matrix vb = Matrix::RowView(mb, 3, 26);
  // Columns [2, 35) of each: stride wider than the row.
  Matrix ca = Matrix::ColView(ma, 2, 35);
  Matrix cb = Matrix::ColView(mb, 2, 35);
};

const MatInputs& MIn() {
  static const MatInputs inputs;
  return inputs;
}

// Runs `fill` into the column view [1, cols + 1) of a rows x (cols + 3)
// output parent and digests the view.
std::uint64_t MatOut(long rows, long cols, const std::function<void(Matrix*)>& fill) {
  Matrix parent(rows, cols + 3);
  Matrix view = Matrix::ColView(parent, 1, cols + 1);
  fill(&view);
  return Digest(view);
}

using MatUnaryK = void (*)(const Matrix*, Matrix*);
using MatScalarK = void (*)(const Matrix*, double, Matrix*);

// A matrix element-wise kernel over the row views and over the column
// views; `k(a, b, out)` gets the views of both inputs.
std::uint64_t MatViews(const std::function<void(const Matrix*, const Matrix*, Matrix*)>& k) {
  const MatInputs& m = MIn();
  Fnv1a h;
  for (std::uint64_t d : {MatOut(m.va.rows(), kCols, [&](Matrix* o) { k(&m.va, &m.vb, o); }),
                          MatOut(kRows, m.ca.cols(), [&](Matrix* o) { k(&m.ca, &m.cb, o); })}) {
    h.Bytes(&d, sizeof(d));
  }
  return h.value();
}
std::uint64_t MatUnary(MatUnaryK k) {
  return MatViews([k](const Matrix* a, const Matrix*, Matrix* o) { k(a, o); });
}
std::uint64_t MatScalar(MatScalarK k, double c) {
  return MatViews([k, c](const Matrix* a, const Matrix*, Matrix* o) { k(a, c, o); });
}

// RollRows fills every row band of a full-height result from the whole
// source, as Mozart's row-band split does; the bands are digested together.
std::uint64_t RollRowsBands(long shift) {
  const Matrix& src = MIn().ma;
  Matrix out(kRows, kCols);
  for (long r0 = 0; r0 < kRows; r0 += 5) {
    Matrix band = Matrix::RowView(out, r0, std::min(kRows, r0 + 5));
    matrix::RollRows(&src, shift, &band);
  }
  return Digest(out);
}

struct Case {
  const char* name;
  std::function<std::uint64_t()> run;
  std::uint64_t digest;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      // --- vecmath unary ---
      {"vec/Sqrt", [] { return Unary(vecmath::Sqrt); }, 0x9cafa2d0828708d4ull},
      {"vec/Exp", [] { return Unary(vecmath::Exp); }, 0x63ada4cd6b835b7full},
      {"vec/Log", [] { return Unary(vecmath::Log); }, 0x8dcee7e368d2fb84ull},
      {"vec/Log1p", [] { return Unary(vecmath::Log1p); }, 0x1f7d0061eca03e3cull},
      {"vec/Erf", [] { return Unary(vecmath::Erf); }, 0x57e0dfd4885e0b53ull},
      {"vec/Exp_inplace", [] { return UnaryInPlace(vecmath::Exp); }, 0x63ada4cd6b835b7full},
      {"vec/Log_inplace", [] { return UnaryInPlace(vecmath::Log); }, 0x8dcee7e368d2fb84ull},
      {"vec/Erf_inplace", [] { return UnaryInPlace(vecmath::Erf); }, 0x57e0dfd4885e0b53ull},
      {"vec/Sin", [] { return Unary(vecmath::Sin); }, 0x8dc26eabce36814eull},
      {"vec/Cos", [] { return Unary(vecmath::Cos); }, 0xffc5aa6de17c3b4cull},
      {"vec/Tan", [] { return Unary(vecmath::Tan); }, 0xc50e635689d4f16full},
      {"vec/Asin", [] { return Unary(vecmath::Asin); }, 0xdbb9954dbf06202bull},
      {"vec/Acos", [] { return Unary(vecmath::Acos); }, 0xb998d8e77de50611ull},
      {"vec/Atan", [] { return Unary(vecmath::Atan); }, 0x77ae43bf78fced5ull},
      {"vec/Abs", [] { return Unary(vecmath::Abs); }, 0x579774fff2c7b730ull},
      {"vec/Neg", [] { return Unary(vecmath::Neg); }, 0x931243cd6d6f72b0ull},
      {"vec/Inv", [] { return Unary(vecmath::Inv); }, 0x1bc5d30e2b71fd62ull},
      {"vec/Sqr", [] { return Unary(vecmath::Sqr); }, 0x40dbe7dcfc62f6eull},
      {"vec/Floor", [] { return Unary(vecmath::Floor); }, 0x443c6919339bbbccull},
      {"vec/Ceil", [] { return Unary(vecmath::Ceil); }, 0x4d7f05f6b98f371cull},
      {"vec/Copy", [] { return Unary(vecmath::Copy); }, 0x9c01a1ac42da8f30ull},

      // --- vecmath binary ---
      {"vec/Add", [] { return Binary(vecmath::Add); }, 0xb70ad8f24f030838ull},
      {"vec/Sub", [] { return Binary(vecmath::Sub); }, 0x32caeeb308691703ull},
      {"vec/Mul", [] { return Binary(vecmath::Mul); }, 0x7efe72ab3cc08599ull},
      {"vec/Div", [] { return Binary(vecmath::Div); }, 0xaf49a9823b71024aull},
      {"vec/Pow", [] { return Binary(vecmath::Pow); }, 0x7575ddaac3ce221ull},
      {"vec/Atan2", [] { return Binary(vecmath::Atan2); }, 0xbef883f8b05b0afeull},
      {"vec/Hypot", [] { return Binary(vecmath::Hypot); }, 0xad4e6cf8458c5fcbull},
      {"vec/Max", [] { return Binary(vecmath::Max); }, 0x6626145976190a2cull},
      {"vec/Min", [] { return Binary(vecmath::Min); }, 0x945ac55ff6d11c61ull},
      {"vec/GreaterThan", [] { return Binary(vecmath::GreaterThan); }, 0xca14ce320aeef065ull},
      {"vec/LessThan", [] { return Binary(vecmath::LessThan); }, 0x482d2c7c3b63e578ull},
      // In place: `out` aliases `a`, as in MKL's vdAdd(n, a, b, a).
      {"vec/Add_inplace",
       [] {
         std::vector<double> io = In().a;
         vecmath::Add(kN, io.data() + 1, B(), io.data() + 1);
         Fnv1a h;
         h.Doubles(io.data() + 1, kN);
         return h.value();
       },
       0xb70ad8f24f030838ull},

      // --- vecmath array ∘ scalar ---
      {"vec/AddC", [] { return Scalar(vecmath::AddC); }, 0x675bea36855ea4f5ull},
      {"vec/SubC", [] { return Scalar(vecmath::SubC); }, 0x89522b827a187733ull},
      {"vec/MulC", [] { return Scalar(vecmath::MulC); }, 0xf7a98633ba7e0e3full},
      {"vec/DivC", [] { return Scalar(vecmath::DivC); }, 0x16234c80e901f765ull},
      {"vec/RSubC", [] { return Scalar(vecmath::RSubC); }, 0x66209e269d05e76aull},
      {"vec/RDivC", [] { return Scalar(vecmath::RDivC); }, 0xda5e1982c3d4e2a7ull},
      {"vec/PowC", [] { return Scalar(vecmath::PowC); }, 0x56704da28541898aull},

      // --- vecmath fused, selection, L1 BLAS ---
      {"vec/Fma", [] { return Out([](double* o) { vecmath::Fma(kN, A(), B(), C(), o); }); },
       0xdf20856653bde0b0ull},
      {"vec/Select",
       [] {
         return Out([](double* o) { vecmath::Select(kN, In().cond.data() + 1, A(), B(), o); });
       },
       0x77a408c266da95f6ull},
      {"vec/Axpy",
       [] {
         Fnv1a h;
         for (double alpha : {-1.75, -0.0, kInf}) {
           std::vector<double> y = In().b;
           vecmath::Axpy(kN, alpha, A(), y.data() + 3);
           h.Doubles(y.data() + 3, kN);
         }
         return h.value();
       },
       0x38ebc61a761b019cull},
      {"vec/Fill",
       [] {
         Fnv1a h;
         for (double c : {-0.0, kPayloadNaN, 3.25}) {
           std::uint64_t d = Out([c](double* o) { vecmath::Fill(kN, c, o); });
           h.Bytes(&d, sizeof(d));
         }
         return h.value();
       },
       0x4e8e5096a3f4cf71ull},

      // --- vecmath reductions ---
      {"vec/Sum", [] { return Reduction([](const double* p) { return vecmath::Sum(kN, p); }); },
       0x8cd0f2d72c326759ull},
      {"vec/Dot",
       [] {
         Fnv1a h;
         h.Double(vecmath::Dot(kN, In().r.data() + 1, In().s.data() + 2));
         h.Double(vecmath::Dot(kN, A(), B()));
         return h.value();
       },
       0x9d4a24e339891304ull},
      {"vec/MaxReduce",
       [] { return Reduction([](const double* p) { return vecmath::MaxReduce(kN, p); }); },
       0x3b6963c415a842c6ull},
      {"vec/MinReduce",
       [] { return Reduction([](const double* p) { return vecmath::MinReduce(kN, p); }); },
       0xc53c9b07fd86f379ull},

      // --- matrix element-wise ---
      {"mat/Add", [] { return MatViews(matrix::Add); }, 0xcc2ec363322c30baull},
      {"mat/Sub", [] { return MatViews(matrix::Sub); }, 0x65a0e4c92733e347ull},
      {"mat/Mul", [] { return MatViews(matrix::Mul); }, 0xe7e13fef740fb802ull},
      {"mat/Div", [] { return MatViews(matrix::Div); }, 0x39a9fd5b07f8573eull},
      {"mat/Sqrt", [] { return MatUnary(matrix::Sqrt); }, 0x804c98afec22ef1bull},
      {"mat/Abs", [] { return MatUnary(matrix::Abs); }, 0xe0728c355bb54f45ull},
      {"mat/Inv", [] { return MatUnary(matrix::Inv); }, 0xa58d78c2de49ff66ull},
      {"mat/CopyMatrix", [] { return MatUnary(matrix::CopyMatrix); }, 0xef7cbc95ca6d53abull},
      {"mat/AddScalar", [] { return MatScalar(matrix::AddScalar, -2.5); }, 0x9147f387f74dc41aull},
      {"mat/MulScalar", [] { return MatScalar(matrix::MulScalar, -0.0); }, 0xf5b117c6e6a48c11ull},
      {"mat/Pow", [] { return MatScalar(matrix::Pow, -1.5); }, 0xb36f3786f79cb1caull},
      {"mat/ClampMagnitude", [] { return MatScalar(matrix::ClampMagnitude, 1e-3); }, 0xc3b1d4c85d00773eull},
      {"mat/AddScaled",
       [] {
         const MatInputs& m = MIn();
         return MatOut(m.va.rows(), kCols,
                       [&](Matrix* o) { matrix::AddScaled(&m.va, -0.75, &m.vb, o); });
       },
       0x83e0c751fc07a7f5ull},
      {"mat/Fill",
       [] { return MatOut(kRows, kCols, [](Matrix* o) { matrix::Fill(o, -0.0); }); }, 0xe9605bdc821ffe45ull},

      // --- matrix rolls ---
      {"mat/RollRows_bands",
       [] {
         Fnv1a h;
         for (long shift : {1L, -1L, 0L, kRows + 3, -2 * kRows - 4}) {
           std::uint64_t d = RollRowsBands(shift);
           h.Bytes(&d, sizeof(d));
         }
         return h.value();
       },
       0x6e6428667920a71eull},
      {"mat/RollRows_viewsrc",
       [] {
         const MatInputs& m = MIn();
         return MatOut(m.ca.rows(), m.ca.cols(),
                       [&](Matrix* o) { matrix::RollRows(&m.ca, -3, o); });
       },
       0x42e561e04341c74dull},
      {"mat/RollCols",
       [] {
         const MatInputs& m = MIn();
         Fnv1a h;
         for (long shift : {1L, -1L, 0L, kCols + 5}) {
           std::uint64_t d =
               MatOut(m.va.rows(), kCols, [&](Matrix* o) { matrix::RollCols(&m.va, shift, o); });
           h.Bytes(&d, sizeof(d));
         }
         return h.value();
       },
       0x6fbb4c82402eeeb3ull},

      // --- matrix reductions, broadcasts and view-aware writers ---
      {"mat/SumAll",
       [] {
         Fnv1a h;
         h.Double(matrix::SumAll(&MIn().mr));
         h.Double(matrix::SumAll(&MIn().ca));
         return h.value();
       },
       0xd334f13932168d68ull},
      {"mat/MaxAbs",
       [] {
         Fnv1a h;
         h.Double(matrix::MaxAbs(&MIn().mr));
         h.Double(matrix::MaxAbs(&MIn().ca));
         return h.value();
       },
       0x3b6963c415a842c6ull},
      {"mat/SumReduceToVector",
       [] {
         Fnv1a h;
         for (int axis : {0, 1}) {
           std::vector<double> v = matrix::SumReduceToVector(&MIn().mr, axis);
           h.Doubles(v.data(), static_cast<long>(v.size()));
         }
         return h.value();
       },
       0x57aeb1fd8df880e4ull},
      {"mat/NormalizeAxis",
       [] {
         Fnv1a h;
         for (int axis : {0, 1}) {
           Matrix m = MIn().mr.Clone();
           matrix::NormalizeAxis(&m, axis);
           std::uint64_t d = Digest(m);
           h.Bytes(&d, sizeof(d));
         }
         return h.value();
       },
       0xfaf149063a4ab13dull},
      {"mat/Gemv",
       [] {
         std::vector<double> out(kRows);
         matrix::Gemv(&MIn().mr, In().s.data() + 1, out.data());
         Fnv1a h;
         h.Doubles(out.data(), kRows);
         return h.value();
       },
       0x66e2694caa4a92f2ull},
      {"mat/OuterDiff_band",
       [] {
         Matrix out(kRows, kCols);
         Matrix band = Matrix::RowView(out, 4, 19);
         matrix::OuterDiff(kCols, A(), &band);
         return Digest(out);
       },
       0x857694301387a7f4ull},
      {"mat/BroadcastRow",
       [] { return MatOut(kRows, kCols, [](Matrix* o) { matrix::BroadcastRow(kCols, B(), o); }); },
       0x5f4d18f4e9eea61dull},
      {"mat/SetDiagonal_band",
       [] {
         Matrix out = MIn().ma.Clone();
         Matrix band = Matrix::RowView(out, 6, 20);
         matrix::SetDiagonal(&band, -0.0);
         return Digest(out);
       },
       0xfb08e46037312729ull},
  };
  return cases;
}

TEST(ArrayKernelIdentity, OutputBytesMatchGoldenDigests) {
  // Reductions fold per-thread partials when the library runs threaded;
  // pin the serial fold the digests record.
  vecmath::SetNumThreads(1);
  matrix::SetNumThreads(1);
  for (const Case& c : Cases()) {
    std::uint64_t got = c.run();
    EXPECT_EQ(got, c.digest) << c.name << ": got 0x" << std::hex << got << "ull";
  }
}

}  // namespace
