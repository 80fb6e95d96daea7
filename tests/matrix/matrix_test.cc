// Tests for the matrix substrate: the library itself, its views, and its
// split annotations (the paper's Listing 4 examples).
#include "matrix/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/runtime.h"
#include "matrix/annotated.h"
#include "vecmath/annotated.h"

namespace {

using matrix::Matrix;

Matrix Filled(long rows, long cols, double start = 1.0) {
  Matrix m(rows, cols);
  double v = start;
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      m.at(r, c) = v;
      v += 1.0;
    }
  }
  return m;
}

mz::RuntimeOptions TestOptions(int threads = 2) {
  mz::RuntimeOptions opts;
  opts.num_threads = threads;
  opts.pedantic = true;
  return opts;
}

TEST(MatrixTest, ConstructZeroed) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 0.0);
}

TEST(MatrixTest, RowViewSharesStorage) {
  Matrix m = Filled(4, 3);
  Matrix v = Matrix::RowView(m, 1, 3);
  EXPECT_EQ(v.rows(), 2);
  EXPECT_EQ(v.row_offset(), 1);
  v.at(0, 0) = 99.0;
  EXPECT_DOUBLE_EQ(m.at(1, 0), 99.0);
}

TEST(MatrixTest, ColViewStride) {
  Matrix m = Filled(3, 5);
  Matrix v = Matrix::ColView(m, 2, 4);
  EXPECT_EQ(v.cols(), 2);
  EXPECT_EQ(v.col_offset(), 2);
  EXPECT_DOUBLE_EQ(v.at(1, 0), m.at(1, 2));
  v.at(1, 0) = -1.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.0);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a = Filled(2, 2, 1.0);   // 1 2 / 3 4
  Matrix b = Filled(2, 2, 10.0);  // 10 11 / 12 13
  Matrix out(2, 2);
  matrix::Add(&a, &b, &out);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 17.0);
  matrix::Mul(&a, &b, &out);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 22.0);
  matrix::AddScaled(&a, 2.0, &b, &out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 21.0);
}

TEST(MatrixTest, NormalizeRowsSumToOne) {
  Matrix m = Filled(3, 4);
  matrix::NormalizeAxis(&m, 0);
  for (long r = 0; r < 3; ++r) {
    double sum = 0;
    for (long c = 0; c < 4; ++c) {
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(MatrixTest, NormalizeColsSumToOne) {
  Matrix m = Filled(3, 4);
  matrix::NormalizeAxis(&m, 1);
  for (long c = 0; c < 4; ++c) {
    double sum = 0;
    for (long r = 0; r < 3; ++r) {
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(MatrixTest, SumReduceBothAxes) {
  Matrix m = Filled(2, 3);  // 1 2 3 / 4 5 6
  std::vector<double> rows = matrix::SumReduceToVector(&m, 1);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0], 6.0);
  EXPECT_DOUBLE_EQ(rows[1], 15.0);
  std::vector<double> cols = matrix::SumReduceToVector(&m, 0);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_DOUBLE_EQ(cols[0], 5.0);
  EXPECT_DOUBLE_EQ(cols[2], 9.0);
}

TEST(MatrixTest, OuterDiffUsesGlobalOffsets) {
  std::vector<double> v = {1.0, 2.0, 4.0};
  Matrix out(3, 3);
  matrix::OuterDiff(3, v.data(), &out);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 3.0);   // v[2] - v[0]
  EXPECT_DOUBLE_EQ(out.at(2, 0), -3.0);  // v[0] - v[2]
  // The same computation on a row view must produce the same rows.
  Matrix band(3, 3);
  Matrix view = Matrix::RowView(band, 1, 3);
  matrix::OuterDiff(3, v.data(), &view);
  EXPECT_DOUBLE_EQ(band.at(1, 0), out.at(1, 0));
  EXPECT_DOUBLE_EQ(band.at(2, 2), out.at(2, 2));
}

TEST(MatrixTest, SetDiagonalOnViews) {
  Matrix m(4, 4);
  Matrix top = Matrix::RowView(m, 0, 2);
  Matrix bottom = Matrix::RowView(m, 2, 4);
  matrix::SetDiagonal(&top, 7.0);
  matrix::SetDiagonal(&bottom, 7.0);
  for (long i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 7.0);
  }
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(MatrixTest, RollRowsWraps) {
  Matrix m = Filled(3, 2);
  Matrix out(3, 2);
  matrix::RollRows(&m, 1, &out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), m.at(2, 0));
  EXPECT_DOUBLE_EQ(out.at(1, 0), m.at(0, 0));
}

// The modulo formula the roll kernels replaced: out[i] = a[(i - shift) mod n].
long ModIndex(long i, long shift, long n) { return ((i - shift) % n + n) % n; }

bool SameBytes(const double* a, const double* b, long n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(double)) == 0;
}

// Shifts around every wrap case: negative, zero, positive and past n.
std::vector<long> RollShifts(long n) { return {-n - 1, -1, 0, 1, n + 1}; }

TEST(MatrixTest, RollColsMatchesModuloFormula) {
  const long rows = 5;
  const long cols = 7;
  Matrix a = Filled(rows, cols, -3.25);
  for (long shift : RollShifts(cols)) {
    Matrix out(rows, cols);
    matrix::RollCols(&a, shift, &out);
    for (long r = 0; r < rows; ++r) {
      std::vector<double> want(static_cast<std::size_t>(cols));
      for (long c = 0; c < cols; ++c) {
        want[static_cast<std::size_t>(c)] = a.at(r, ModIndex(c, shift, cols));
      }
      EXPECT_TRUE(SameBytes(out.row(r), want.data(), cols)) << "shift " << shift << " row " << r;
    }
  }
}

TEST(MatrixTest, RollRowsEveryBandMatchesFullRoll) {
  const long n = 7;
  const long cols = 3;
  Matrix a = Filled(n, cols, 0.5);
  for (long shift : RollShifts(n)) {
    Matrix full(n, cols);
    matrix::RollRows(&a, shift, &full);
    for (long r = 0; r < n; ++r) {
      EXPECT_TRUE(SameBytes(full.row(r), a.row(ModIndex(r, shift, n)), cols))
          << "shift " << shift << " row " << r;
    }
    // Every row band [r0, r1) of a fresh output, filled alone.
    for (long r0 = 0; r0 < n; ++r0) {
      for (long r1 = r0 + 1; r1 <= n; ++r1) {
        Matrix out(n, cols);
        Matrix band = Matrix::RowView(out, r0, r1);
        matrix::RollRows(&a, shift, &band);
        for (long r = r0; r < r1; ++r) {
          ASSERT_TRUE(SameBytes(out.row(r), full.row(r), cols))
              << "shift " << shift << " band [" << r0 << ", " << r1 << ") row " << r;
        }
      }
    }
  }
}

TEST(MatrixTest, RollsRejectOverlappingOutput) {
  // Re-executes the binary per death check instead of forking a process
  // whose pool threads are running.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Matrix a = Filled(6, 4);
  Matrix top = Matrix::RowView(a, 0, 3);
  Matrix shifted = Matrix::RowView(a, 2, 5);
  EXPECT_DEATH_IF_SUPPORTED(matrix::RollRows(&a, 1, &a), "overlaps");
  EXPECT_DEATH_IF_SUPPORTED(matrix::RollRows(&a, 1, &top), "overlaps");
  EXPECT_DEATH_IF_SUPPORTED(matrix::RollCols(&a, 1, &a), "overlaps");
  EXPECT_DEATH_IF_SUPPORTED(matrix::RollCols(&top, 1, &shifted), "overlaps");
  Matrix bottom = Matrix::RowView(a, 3, 6);
  matrix::RollCols(&top, 1, &bottom);  // disjoint bands of one matrix
  EXPECT_DOUBLE_EQ(a.at(3, 1), a.at(0, 0));
}

TEST(MatrixTest, GemvMatchesManual) {
  Matrix m = Filled(3, 2);
  std::vector<double> v = {2.0, -1.0};
  std::vector<double> out(3);
  matrix::Gemv(&m, v.data(), out.data());
  EXPECT_DOUBLE_EQ(out[0], m.at(0, 0) * 2.0 - m.at(0, 1));
}

// --- annotated pipelines ---

TEST(MatrixAnnotatedTest, ElementwisePipelineSingleStage) {
  const long n = 256;
  Matrix a = Filled(n, n);
  Matrix b = Filled(n, n, 5.0);
  Matrix t1(n, n);
  Matrix t2(n, n);
  Matrix want(n, n);
  matrix::Add(&a, &b, &want);
  matrix::Sqrt(&want, &want);
  matrix::MulScalar(&want, 3.0, &want);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::Add(&a, &b, &t1);
  mzmat::Sqrt(&t1, &t2);
  mzmat::MulScalar(&t2, 3.0, &t2);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  for (long r = 0; r < n; r += 37) {
    EXPECT_DOUBLE_EQ(t2.at(r, r % n), want.at(r, r % n));
  }
}

TEST(MatrixAnnotatedTest, NormalizeAxisSequenceBreaksStages) {
  const long n = 128;
  Matrix m = Filled(n, n);
  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  // Paper §3.1: the first call needs row splits, the second column splits —
  // MatrixSplit<r,c,0> ≠ MatrixSplit<r,c,1> forces a merge between them.
  mzmat::NormalizeAxis(&m, 0);
  mzmat::NormalizeAxis(&m, 1);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 2);
  for (long c = 0; c < n; c += 17) {
    double sum = 0;
    for (long r = 0; r < n; ++r) {
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(MatrixAnnotatedTest, ReduceToVectorAxis0SumsPartials) {
  const long rows = 300;
  const long cols = 40;
  Matrix m = Filled(rows, cols);
  std::vector<double> want = matrix::SumReduceToVector(&m, 0);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mz::Future<std::vector<double>> got = mzmat::SumReduceToVector(&m, 0);
  std::vector<double> result = got.get();
  ASSERT_EQ(result.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(result[i], want[i], 1e-9) << "col " << i;
  }
}

TEST(MatrixAnnotatedTest, ReduceToVectorAxis1Concatenates) {
  const long rows = 257;
  const long cols = 33;
  Matrix m = Filled(rows, cols);
  std::vector<double> want = matrix::SumReduceToVector(&m, 1);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  std::vector<double> got = mzmat::SumReduceToVector(&m, 1).get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "row " << i;
  }
}

TEST(MatrixAnnotatedTest, GemvPipelinesMatrixAndArraySplits) {
  const long rows = 500;
  const long cols = 64;
  Matrix m = Filled(rows, cols);
  std::vector<double> v(static_cast<std::size_t>(cols), 0.5);
  std::vector<double> got(static_cast<std::size_t>(rows));
  std::vector<double> want(static_cast<std::size_t>(rows));
  matrix::Gemv(&m, v.data(), want.data());

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::Gemv(&m, v.data(), got.data());
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  for (long i = 0; i < rows; i += 41) {
    EXPECT_NEAR(got[static_cast<std::size_t>(i)], want[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(MatrixAnnotatedTest, RollRowsBroadcastSourceBreaksAfterWriter) {
  const long n = 64;
  Matrix a = Filled(n, n);
  Matrix rolled(n, n);
  Matrix out(n, n);
  Matrix want_a = Filled(n, n);
  Matrix want_rolled(n, n);
  Matrix want(n, n);
  matrix::MulScalar(&want_a, 2.0, &want_a);
  matrix::RollRows(&want_a, 1, &want_rolled);
  matrix::Add(&want_a, &want_rolled, &want);

  // RollRows reads all of `a`, so it starts a second stage after the one
  // that writes `a`; the Add joins it, splitting `rolled` and `out` by rows.
  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::MulScalar(&a, 2.0, &a);
  mzmat::RollRows(&a, 1, &rolled);
  mzmat::Add(&a, &rolled, &out);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 2);
  for (long r = 0; r < n; ++r) {
    ASSERT_TRUE(SameBytes(out.row(r), want.row(r), n)) << "row " << r;
  }
}

// Write-after-read: a node reading x whole ("_") must not share a stage, or
// a pipeline region, with a later node that writes x through a split —
// later batches of the reader would see x half updated. With `pipeline` off
// every node is its own stage, so only the region rule stands between the
// two; with it on, the stage-break rule does.
struct HazardCase {
  bool pipeline;
  int threads;
};

void PrintTo(const HazardCase& c, std::ostream* os) {
  *os << (c.pipeline ? "pipeline" : "no pipeline") << ", " << c.threads << " thread(s)";
}

class BroadcastWriteHazard : public ::testing::TestWithParam<HazardCase> {};

TEST_P(BroadcastWriteHazard, GemvThenSplitWriteOfItsVector) {
  const long n = 1024;
  Matrix m = Filled(n, n, -0.5);
  matrix::MulScalar(&m, 1.0 / static_cast<double>(n * n), &m);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::iota(x.begin(), x.end(), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n));
  std::vector<double> want_x = x;
  std::vector<double> want_y(static_cast<std::size_t>(n));
  matrix::Gemv(&m, want_x.data(), want_y.data());
  for (long i = 0; i < n; ++i) {
    want_x[static_cast<std::size_t>(i)] += want_y[static_cast<std::size_t>(i)];
  }

  mz::RuntimeOptions opts = TestOptions(GetParam().threads);
  opts.pipeline = GetParam().pipeline;
  opts.batch_elems_override = 64;
  mz::Runtime rt(opts);
  mz::RuntimeScope scope(&rt);
  mzmat::Gemv(&m, x.data(), y.data());
  mzvec::Add(n, x.data(), y.data(), x.data());
  rt.Evaluate();
  long wrong = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    wrong += !SameBytes(&y[i], &want_y[i], 1) || !SameBytes(&x[i], &want_x[i], 1);
  }
  EXPECT_EQ(wrong, 0) << "of " << n;
}

TEST_P(BroadcastWriteHazard, RollRowsThenSplitWriteOfItsSource) {
  const long n = 512;
  Matrix h = Filled(n, n);
  Matrix t(n, n);
  Matrix want_h = Filled(n, n);
  Matrix want_t(n, n);
  matrix::RollRows(&want_h, 1, &want_t);
  matrix::Add(&want_h, &want_t, &want_h);

  mz::RuntimeOptions opts = TestOptions(GetParam().threads);
  opts.pipeline = GetParam().pipeline;
  opts.batch_elems_override = 7;
  mz::Runtime rt(opts);
  mz::RuntimeScope scope(&rt);
  mzmat::RollRows(&h, 1, &t);
  mzmat::Add(&h, &t, &h);
  rt.Evaluate();
  long wrong = 0;
  for (long r = 0; r < n; ++r) {
    wrong += !SameBytes(h.row(r), want_h.row(r), n);
  }
  EXPECT_EQ(wrong, 0) << "rows of " << n;
}

INSTANTIATE_TEST_SUITE_P(PipelineThreads, BroadcastWriteHazard,
                         ::testing::Values(HazardCase{true, 1}, HazardCase{true, 4},
                                           HazardCase{false, 1}, HazardCase{false, 4}),
                         [](const ::testing::TestParamInfo<HazardCase>& param_info) {
                           return std::string(param_info.param.pipeline ? "pipe" : "nopipe") +
                                  "_t" + std::to_string(param_info.param.threads);
                         });

// A matrix carried across a stage boundary arrives as row-band pieces
// (Matrix views, not Matrix*); writing it in the consuming stage must merge
// those pieces.
TEST(MatrixAnnotatedTest, CarriedRowBandsMerge) {
  const long n = 256;
  for (int threads : {1, 4}) {
    Matrix a = Filled(n, n);
    std::vector<double> x(static_cast<std::size_t>(n), 0.25);
    std::vector<double> y(static_cast<std::size_t>(n));
    Matrix want_a = Filled(n, n);
    std::vector<double> want_x = x;
    std::vector<double> want_y(static_cast<std::size_t>(n));
    matrix::MulScalar(&want_a, 2.0, &want_a);
    for (double& v : want_x) {
      v += v;
    }
    matrix::Gemv(&want_a, want_x.data(), want_y.data());
    matrix::MulScalar(&want_a, 3.0, &want_a);

    mz::Runtime rt(TestOptions(threads));
    mz::RuntimeScope scope(&rt);
    mzmat::MulScalar(&a, 2.0, &a);
    mzvec::Add(n, x.data(), x.data(), x.data());
    mzmat::Gemv(&a, x.data(), y.data());  // "_" read of x: stage break
    mzmat::MulScalar(&a, 3.0, &a);
    rt.Evaluate();
    mz::EvalStats::Snapshot stats = rt.stats().Take();
    EXPECT_EQ(stats.stages, 2);
    EXPECT_GE(stats.boundaries_elided, 1);
    for (long r = 0; r < n; ++r) {
      ASSERT_TRUE(SameBytes(a.row(r), want_a.row(r), n)) << "t" << threads << " row " << r;
    }
    EXPECT_TRUE(SameBytes(y.data(), want_y.data(), n)) << "t" << threads;
  }
}

TEST(MatrixAnnotatedTest, WholeMatrixReductions) {
  const long n = 200;
  Matrix m = Filled(n, n);
  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  double total = mzmat::SumAll(&m).get();
  double maxabs = mzmat::MaxAbs(&m).get();
  EXPECT_DOUBLE_EQ(total, matrix::SumAll(&m));
  EXPECT_DOUBLE_EQ(maxabs, static_cast<double>(n * n));
}

TEST(MatrixAnnotatedTest, OuterDiffThenElementwiseSingleStage) {
  const long n = 128;
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  Matrix diff(n, n);
  Matrix sq(n, n);

  Matrix want_diff(n, n);
  Matrix want_sq(n, n);
  matrix::OuterDiff(n, v.data(), &want_diff);
  matrix::Mul(&want_diff, &want_diff, &want_sq);

  mz::Runtime rt(TestOptions());
  mz::RuntimeScope scope(&rt);
  mzmat::OuterDiff(n, v.data(), &diff);
  mzmat::Mul(&diff, &diff, &sq);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  EXPECT_DOUBLE_EQ(sq.at(3, 70), want_sq.at(3, 70));
}

// The same carry without a concrete split type: with one node per stage
// (the "-pipe" ablation), a generic chain over one matrix carries its
// default row bands from stage to stage and merges them at the end.
TEST(MatrixAnnotatedTest, CarriedDefaultRowBandsMergeWithoutPipelining) {
  const long n = 200;
  Matrix a = Filled(n, n);
  Matrix want = Filled(n, n);
  matrix::MulScalar(&want, 2.0, &want);
  matrix::AddScalar(&want, 1.0, &want);
  matrix::Sqrt(&want, &want);

  mz::RuntimeOptions opts = TestOptions(4);
  opts.pipeline = false;
  mz::Runtime rt(opts);
  mz::RuntimeScope scope(&rt);
  mzmat::MulScalar(&a, 2.0, &a);
  mzmat::AddScalar(&a, 1.0, &a);
  mzmat::Sqrt(&a, &a);
  rt.Evaluate();
  mz::EvalStats::Snapshot stats = rt.stats().Take();
  EXPECT_EQ(stats.stages, 3);
  EXPECT_EQ(stats.boundaries_elided, 2);
  for (long r = 0; r < n; ++r) {
    ASSERT_TRUE(SameBytes(a.row(r), want.row(r), n)) << "row " << r;
  }
}

// Shallow Water (the fig4d stencil): periodic central differences built
// from rolls, then forward-Euler updates; `Lib` is the eager library or its
// annotated twin.
struct Eager {
  static constexpr auto RollRows = matrix::RollRows;
  static constexpr auto RollCols = matrix::RollCols;
  static constexpr auto Sub = matrix::Sub;
  static constexpr auto Add = matrix::Add;
  static constexpr auto MulScalar = matrix::MulScalar;
  static constexpr auto AddScaled = matrix::AddScaled;
};

struct Lazy {
  static void RollRows(const Matrix* a, long s, Matrix* o) { mzmat::RollRows(a, s, o); }
  static void RollCols(const Matrix* a, long s, Matrix* o) { mzmat::RollCols(a, s, o); }
  static void Sub(const Matrix* a, const Matrix* b, Matrix* o) { mzmat::Sub(a, b, o); }
  static void Add(const Matrix* a, const Matrix* b, Matrix* o) { mzmat::Add(a, b, o); }
  static void MulScalar(const Matrix* a, double c, Matrix* o) { mzmat::MulScalar(a, c, o); }
  static void AddScaled(const Matrix* a, double al, const Matrix* b, Matrix* o) {
    mzmat::AddScaled(a, al, b, o);
  }
};

struct StencilState {
  explicit StencilState(long n) {
    for (Matrix* m : {&h, &u, &v, &h2, &u2, &v2, &ra, &rb, &dudx, &dvdy, &dhdx, &dhdy, &div}) {
      *m = Matrix(n, n);
    }
    for (long r = 0; r < n; ++r) {
      for (long c = 0; c < n; ++c) {
        double x = static_cast<double>(r * 31 + c * 17);
        h.at(r, c) = 1.0 + 0.5 * std::sin(x * 0.01);
        u.at(r, c) = 1e-3 * std::cos(x * 0.02);
        v.at(r, c) = -1e-3 * std::sin(x * 0.03);
      }
    }
  }

  template <typename Lib>
  void Steps(int steps) {
    const double dt = 0.001;
    const double g = 9.8;
    const double inv_2dx = 0.5;
    Matrix *sh = &h, *su = &u, *sv = &v, *dh = &h2, *du = &u2, *dv = &v2;
    for (int s = 0; s < steps; ++s) {
      Lib::RollRows(su, 1, &ra);
      Lib::RollRows(su, -1, &rb);
      Lib::Sub(&ra, &rb, &dudx);
      Lib::MulScalar(&dudx, inv_2dx, &dudx);
      Lib::RollCols(sv, 1, &ra);
      Lib::RollCols(sv, -1, &rb);
      Lib::Sub(&ra, &rb, &dvdy);
      Lib::MulScalar(&dvdy, inv_2dx, &dvdy);
      Lib::RollRows(sh, 1, &ra);
      Lib::RollRows(sh, -1, &rb);
      Lib::Sub(&ra, &rb, &dhdx);
      Lib::MulScalar(&dhdx, inv_2dx, &dhdx);
      Lib::RollCols(sh, 1, &ra);
      Lib::RollCols(sh, -1, &rb);
      Lib::Sub(&ra, &rb, &dhdy);
      Lib::MulScalar(&dhdy, inv_2dx, &dhdy);
      Lib::Add(&dudx, &dvdy, &div);
      Lib::AddScaled(sh, -dt, &div, dh);
      Lib::AddScaled(su, -dt * g, &dhdx, du);
      Lib::AddScaled(sv, -dt * g, &dhdy, dv);
      std::swap(sh, dh);
      std::swap(su, du);
      std::swap(sv, dv);
    }
  }

  Matrix h, u, v, h2, u2, v2, ra, rb, dudx, dvdy, dhdx, dhdy, div;
};

struct StencilCase {
  std::int64_t batch;  // 0 = L2 heuristic
  int threads;
  long n = 96;  // grid side
};

void PrintTo(const StencilCase& c, std::ostream* os) {
  *os << "batch " << c.batch << ", " << c.threads << " thread(s), n " << c.n;
}

class StencilDifferential : public ::testing::TestWithParam<StencilCase> {};

TEST_P(StencilDifferential, ShallowWaterMatchesEagerByteForByte) {
  // 96 is not a multiple of the 37-row batch; at 640 (fig4d's grid) each
  // rolled source overflows L2, so only the halo charge keeps the heuristic
  // batch above one row.
  const long n = GetParam().n;
  const int steps = 3;
  StencilState want(n);
  want.Steps<Eager>(steps);

  StencilState got(n);
  mz::RuntimeOptions opts = TestOptions(GetParam().threads);
  opts.batch_elems_override = GetParam().batch;
  mz::Runtime rt(opts);
  mz::RuntimeScope scope(&rt);
  got.Steps<Lazy>(steps);
  rt.Evaluate();
  // One pipelined stage per step: each step's first roll reads the state
  // the previous step wrote.
  EXPECT_EQ(rt.stats().Take().stages, steps);
  const std::pair<const Matrix*, const Matrix*> pairs[] = {
      {&got.h, &want.h},   {&got.u, &want.u},   {&got.v, &want.v},
      {&got.h2, &want.h2}, {&got.u2, &want.u2}, {&got.v2, &want.v2}};
  for (const auto& [g, w] : pairs) {
    for (long r = 0; r < n; ++r) {
      ASSERT_TRUE(SameBytes(g->row(r), w->row(r), n)) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchThreads, StencilDifferential,
                         ::testing::Values(StencilCase{1, 1}, StencilCase{37, 1},
                                           StencilCase{0, 1}, StencilCase{1, 4},
                                           StencilCase{37, 4}, StencilCase{0, 4},
                                           StencilCase{0, 1, 640}, StencilCase{0, 4, 640}),
                         [](const ::testing::TestParamInfo<StencilCase>& param_info) {
                           const StencilCase& c = param_info.param;
                           return "b" + std::to_string(c.batch) + "_t" +
                                  std::to_string(c.threads) +
                                  (c.n == 96 ? "" : "_n" + std::to_string(c.n));
                         });

// RollRows reads its source as a halo: every batch gets the whole source,
// but it is charged per row, so a stencil stage over sources far larger
// than L2 still runs L2-sized batches. The same call annotated with a real
// "_" source charges it as resident bytes and floors the batch at one row.
const mz::Annotated<void(const Matrix*, long, Matrix*)>& RollRowsBroadcast() {
  static const mz::Annotated<void(const Matrix*, long, Matrix*)> fn(
      matrix::RollRows, mz::AnnotationBuilder("matrix_test.RollRowsBroadcast")
                            .Arg("a", mz::NoSplit())
                            .Arg("shift", mz::NoSplit())
                            .MutArg("out", mz::Split("MatrixSplit", {"out"}))
                            .Build());
  return fn;
}

TEST(HaloFootprint, RollRowsSourceChargesPerRow) {
  const long n = 1024;
  Matrix a = Filled(n, n);
  Matrix want_ra(n, n);
  Matrix want_rb(n, n);
  Matrix want(n, n);
  matrix::RollRows(&a, 1, &want_ra);
  matrix::RollRows(&a, -1, &want_rb);
  matrix::Sub(&want_ra, &want_rb, &want);

  for (bool halo : {true, false}) {
    Matrix ra(n, n);
    Matrix rb(n, n);
    Matrix d(n, n);
    mz::Runtime rt(TestOptions(/*threads=*/2));
    mz::RuntimeScope scope(&rt);
    const auto& roll = halo ? mzmat::RollRows : RollRowsBroadcast();
    roll(&a, 1, &ra);
    roll(&a, -1, &rb);
    mzmat::Sub(&ra, &rb, &d);
    rt.Evaluate();
    mz::EvalStats::Snapshot s = rt.stats().Take();
    EXPECT_EQ(s.stages, 1);
    if (halo) {
      // Four row-wide buffers (the source, ra, rb, d) at 8 KiB a row fit at
      // least 8 rows even in the 256 KiB L2 the heuristic falls back to.
      EXPECT_LE(s.batches, n / 8);
    } else {
      EXPECT_GE(s.batches, n);  // one-row batches
    }
    for (long r = 0; r < n; ++r) {
      ASSERT_TRUE(SameBytes(d.row(r), want.row(r), n)) << "row " << r << (halo ? " halo" : "");
    }
  }
}

// Parameterized: elementwise chains across thread counts and shapes.
struct MatrixSweep {
  int threads;
  long rows;
  long cols;
};

class MatrixPipelineSweep : public ::testing::TestWithParam<MatrixSweep> {};

TEST_P(MatrixPipelineSweep, ChainMatchesDirect) {
  const MatrixSweep p = GetParam();
  Matrix a = Filled(p.rows, p.cols);
  Matrix got(p.rows, p.cols);
  Matrix want(p.rows, p.cols);

  matrix::MulScalar(&a, 0.25, &want);
  matrix::Sqrt(&want, &want);
  matrix::AddScalar(&want, 1.0, &want);
  matrix::Mul(&want, &want, &want);

  mz::Runtime rt(TestOptions(p.threads));
  mz::RuntimeScope scope(&rt);
  mzmat::MulScalar(&a, 0.25, &got);
  mzmat::Sqrt(&got, &got);
  mzmat::AddScalar(&got, 1.0, &got);
  mzmat::Mul(&got, &got, &got);
  rt.Evaluate();
  EXPECT_EQ(rt.stats().Take().stages, 1);
  for (long r = 0; r < p.rows; r += std::max<long>(1, p.rows / 13)) {
    for (long c = 0; c < p.cols; c += std::max<long>(1, p.cols / 7)) {
      ASSERT_DOUBLE_EQ(got.at(r, c), want.at(r, c)) << r << "," << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixPipelineSweep,
                         ::testing::Values(MatrixSweep{1, 1, 1}, MatrixSweep{1, 100, 3},
                                           MatrixSweep{2, 64, 64}, MatrixSweep{2, 999, 17},
                                           MatrixSweep{4, 3, 1000}, MatrixSweep{4, 513, 129}),
                         [](const ::testing::TestParamInfo<MatrixSweep>& param_info) {
                           return "t" + std::to_string(param_info.param.threads) + "_r" +
                                  std::to_string(param_info.param.rows) + "_c" +
                                  std::to_string(param_info.param.cols);
                         });

}  // namespace
