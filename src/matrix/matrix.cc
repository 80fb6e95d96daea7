#include "matrix/matrix.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/aligned.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "matrix/loops.h"

namespace matrix {
namespace {

std::atomic<int> g_num_threads{0};

int EffectiveThreads() {
  int t = g_num_threads.load(std::memory_order_relaxed);
  return t > 0 ? t : mz::NumLogicalCpus();
}

constexpr long kParallelGrainElems = 1 << 15;

// Runs body(r0, r1) over row ranges of an `nrows`-row operation, in parallel
// when the library's internal threading is enabled and the matrix is large,
// as the code built for SIMD path S (common/simd.h).
template <mz::SimdLoops S = mz::SimdLoops::kBaseline, typename Body>
void DispatchRows(long nrows, long ncols, Body body) {
  int threads = EffectiveThreads();
  if (threads <= 1 || nrows * ncols < kParallelGrainElems || nrows < 2) {
    mz::RunLoop<S>(body, 0, nrows);
    return;
  }
  long chunk = (nrows + threads - 1) / threads;
  mz::GlobalPool().ParallelFor(0, threads, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      long lo = static_cast<long>(t) * chunk;
      long hi = lo + chunk < nrows ? lo + chunk : nrows;
      if (lo < hi) {
        mz::RunLoop<S>(body, lo, hi);
      }
    }
  });
}

void CheckSameShape(const Matrix* a, const Matrix* b, const Matrix* out) {
  MZ_CHECK_MSG(a != nullptr && out != nullptr, "null matrix argument");
  MZ_CHECK_MSG(a->rows() == out->rows() && a->cols() == out->cols(),
               "matrix shape mismatch: " << a->rows() << "x" << a->cols() << " vs "
                                         << out->rows() << "x" << out->cols());
  if (b != nullptr) {
    MZ_CHECK_MSG(a->rows() == b->rows() && a->cols() == b->cols(), "matrix shape mismatch");
  }
}

// True when the bytes spanned by `a` and `b` (first row start to last row
// end) intersect. Conservative for interleaved column views.
bool Overlaps(const Matrix* a, const Matrix* b) {
  if (a->rows() == 0 || a->cols() == 0 || b->rows() == 0 || b->cols() == 0) {
    return false;
  }
  auto addr = [](const double* p) { return reinterpret_cast<std::uintptr_t>(p); };
  std::uintptr_t a_end = addr(a->row(a->rows() - 1) + a->cols());
  std::uintptr_t b_end = addr(b->row(b->rows() - 1) + b->cols());
  return addr(a->data()) < b_end && addr(b->data()) < a_end;
}

template <mz::SimdLoops S, typename F>
void MapBinary(const Matrix* a, const Matrix* b, Matrix* out, F f) {
  CheckSameShape(a, b, out);
  long cols = a->cols();
  DispatchRows<S>(a->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      const double* __restrict pa = a->row(r);
      const double* __restrict pb = b->row(r);
      double* __restrict po = out->row(r);
      for (long c = 0; c < cols; ++c) {
        po[c] = f(pa[c], pb[c]);
      }
    }
  });
}

template <mz::SimdLoops S = mz::SimdLoops::kBaseline, typename F>
void MapUnary(const Matrix* a, Matrix* out, F f) {
  CheckSameShape(a, nullptr, out);
  long cols = a->cols();
  DispatchRows<S>(a->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      const double* __restrict pa = a->row(r);
      double* __restrict po = out->row(r);
      for (long c = 0; c < cols; ++c) {
        po[c] = f(pa[c]);
      }
    }
  });
}

// Loop makers for the ElementwiseLoops table: each turns a captureless
// element operation `Op` into the function that maps it over matrices on
// SIMD path S.
template <mz::SimdLoops S, typename Op>
constexpr internal::UnaryLoop Unary(Op) {
  return [](const Matrix* a, Matrix* out) { MapUnary<S>(a, out, Op{}); };
}
template <mz::SimdLoops S, typename Op>
constexpr internal::BinaryLoop Binary(Op) {
  return [](const Matrix* a, const Matrix* b, Matrix* out) { MapBinary<S>(a, b, out, Op{}); };
}
// out = op(a, c) element-wise.
template <mz::SimdLoops S, typename Op>
constexpr internal::ScalarLoop WithScalar(Op) {
  return [](const Matrix* a, double c, Matrix* out) {
    MapUnary<S>(a, out, [c](double x) { return Op{}(x, c); });
  };
}

template <mz::SimdLoops S>
void FillLoop(Matrix* m, double c) {
  MapUnary<S>(m, m, [c](double) { return c; });
}

template <mz::SimdLoops S>
void AddScaledLoop(const Matrix* a, double alpha, const Matrix* b, Matrix* out) {
  CheckSameShape(a, b, out);
  long cols = a->cols();
  DispatchRows<S>(a->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      const double* __restrict pa = a->row(r);
      const double* __restrict pb = b->row(r);
      double* __restrict po = out->row(r);
      for (long c = 0; c < cols; ++c) {
        po[c] = pa[c] + alpha * pb[c];
      }
    }
  });
}

template <mz::SimdLoops S>
constexpr internal::ElementwiseLoops kLoops = {
    .add = Binary<S>([](double x, double y) { return x + y; }),
    .sub = Binary<S>([](double x, double y) { return x - y; }),
    .mul = Binary<S>([](double x, double y) { return x * y; }),
    .div = Binary<S>([](double x, double y) { return x / y; }),
    .add_scalar = WithScalar<S>([](double x, double c) { return x + c; }),
    .mul_scalar = WithScalar<S>([](double x, double c) { return x * c; }),
    // sign(x) * max(|x|, eps).
    .clamp_magnitude = WithScalar<S>([](double x, double eps) {
      double m = std::fabs(x);
      double sign = x < 0 ? -1.0 : 1.0;
      return sign * (m < eps ? eps : m);
    }),
    .sqrt = Unary<S>([](double x) { return std::sqrt(x); }),
    .abs = Unary<S>([](double x) { return std::fabs(x); }),
    .inv = Unary<S>([](double x) { return 1.0 / x; }),
    .copy_matrix = Unary<S>([](double x) { return x; }),
    .fill = FillLoop<S>,
    .add_scaled = AddScaledLoop<S>,
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

Matrix::Matrix(long rows, long cols) : rows_(rows), cols_(cols), stride_(cols) {
  MZ_CHECK_MSG(rows >= 0 && cols >= 0, "negative matrix dimensions");
  std::size_t count = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (count == 0) {
    return;
  }
  // Color the base (see common/aligned.h): simulation state is typically
  // many equal power-of-two matrices, which would otherwise be L2-set
  // congruent and thrash when row bands are pipelined. Large matrices sit on
  // huge pages, as large AlignedBuffers do.
  mz::internal::ArrayAllocation a = mz::internal::AllocateArray(count * sizeof(double));
  std::memset(a.data, 0, count * sizeof(double));
  storage_ = std::shared_ptr<double[]>(reinterpret_cast<double*>(a.base),
                                       [](double* q) { std::free(q); });
  data_ = reinterpret_cast<double*>(a.data);
}

Matrix Matrix::RowView(const Matrix& parent, long r0, long r1) {
  MZ_CHECK_MSG(r0 >= 0 && r0 <= r1 && r1 <= parent.rows(), "row view out of range");
  Matrix v;
  v.storage_ = parent.storage_;
  v.data_ = const_cast<double*>(parent.data()) + r0 * parent.stride();
  v.rows_ = r1 - r0;
  v.cols_ = parent.cols();
  v.stride_ = parent.stride();
  v.row_offset_ = parent.row_offset_ + r0;
  v.col_offset_ = parent.col_offset_;
  return v;
}

Matrix Matrix::ColView(const Matrix& parent, long c0, long c1) {
  MZ_CHECK_MSG(c0 >= 0 && c0 <= c1 && c1 <= parent.cols(), "col view out of range");
  Matrix v;
  v.storage_ = parent.storage_;
  v.data_ = const_cast<double*>(parent.data()) + c0;
  v.rows_ = parent.rows();
  v.cols_ = c1 - c0;
  v.stride_ = parent.stride();
  v.row_offset_ = parent.row_offset_;
  v.col_offset_ = parent.col_offset_ + c0;
  return v;
}

Matrix Matrix::Clone() const {
  Matrix out(rows_, cols_);
  for (long r = 0; r < rows_; ++r) {
    std::memcpy(out.row(r), row(r), static_cast<std::size_t>(cols_) * sizeof(double));
  }
  return out;
}

void SetNumThreads(int threads) {
  MZ_CHECK_MSG(threads >= 0, "SetNumThreads requires a non-negative count");
  g_num_threads.store(threads, std::memory_order_relaxed);
}

int GetNumThreads() { return EffectiveThreads(); }

void Add(const Matrix* a, const Matrix* b, Matrix* out) { Loops().add(a, b, out); }
void Sub(const Matrix* a, const Matrix* b, Matrix* out) { Loops().sub(a, b, out); }
void Mul(const Matrix* a, const Matrix* b, Matrix* out) { Loops().mul(a, b, out); }
void Div(const Matrix* a, const Matrix* b, Matrix* out) { Loops().div(a, b, out); }

void AddScalar(const Matrix* a, double c, Matrix* out) { Loops().add_scalar(a, c, out); }
void MulScalar(const Matrix* a, double c, Matrix* out) { Loops().mul_scalar(a, c, out); }

void Fill(Matrix* m, double c) { Loops().fill(m, c); }

void AddScaled(const Matrix* a, double alpha, const Matrix* b, Matrix* out) {
  Loops().add_scaled(a, alpha, b, out);
}

void Sqrt(const Matrix* a, Matrix* out) { Loops().sqrt(a, out); }
void Abs(const Matrix* a, Matrix* out) { Loops().abs(a, out); }
void Pow(const Matrix* a, double exponent, Matrix* out) {
  MapUnary(a, out, [exponent](double x) { return std::pow(x, exponent); });
}
void Inv(const Matrix* a, Matrix* out) { Loops().inv(a, out); }

void ClampMagnitude(const Matrix* a, double eps, Matrix* out) {
  Loops().clamp_magnitude(a, eps, out);
}

void NormalizeAxis(Matrix* m, int axis) {
  MZ_CHECK_MSG(axis == 0 || axis == 1, "axis must be 0 (rows) or 1 (columns)");
  if (axis == 0) {
    long cols = m->cols();
    DispatchRows(m->rows(), cols, [&](long r0, long r1) {
      for (long r = r0; r < r1; ++r) {
        double* __restrict p = m->row(r);
        double sum = 0;
        for (long c = 0; c < cols; ++c) {
          sum += p[c];
        }
        if (sum != 0) {
          double inv = 1.0 / sum;
          for (long c = 0; c < cols; ++c) {
            p[c] *= inv;
          }
        }
      }
    });
    return;
  }
  // axis == 1: each column scaled to unit sum. Iterates row-major for
  // locality; the SA splits the matrix into column bands for this case.
  long rows = m->rows();
  long cols = m->cols();
  std::vector<double> sums(static_cast<std::size_t>(cols), 0.0);
  for (long r = 0; r < rows; ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < cols; ++c) {
      sums[static_cast<std::size_t>(c)] += p[c];
    }
  }
  for (double& s : sums) {
    s = s != 0 ? 1.0 / s : 0.0;
  }
  for (long r = 0; r < rows; ++r) {
    double* p = m->row(r);
    for (long c = 0; c < cols; ++c) {
      p[c] *= sums[static_cast<std::size_t>(c)];
    }
  }
}

std::vector<double> SumReduceToVector(const Matrix* m, int axis) {
  MZ_CHECK_MSG(axis == 0 || axis == 1, "axis must be 0 (sum columns) or 1 (sum rows)");
  long rows = m->rows();
  long cols = m->cols();
  if (axis == 1) {
    std::vector<double> out(static_cast<std::size_t>(rows), 0.0);
    for (long r = 0; r < rows; ++r) {
      const double* p = m->row(r);
      double sum = 0;
      for (long c = 0; c < cols; ++c) {
        sum += p[c];
      }
      out[static_cast<std::size_t>(r)] = sum;
    }
    return out;
  }
  std::vector<double> out(static_cast<std::size_t>(cols), 0.0);
  for (long r = 0; r < rows; ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(c)] += p[c];
    }
  }
  return out;
}

void OuterDiff(long n, const double* v, Matrix* out) {
  MZ_CHECK_MSG(out->cols() == n, "OuterDiff output must have n columns");
  long base = out->row_offset();
  long rows = out->rows();
  DispatchRows(rows, n, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      double vi = v[base + r];
      double* __restrict po = out->row(r);
      for (long c = 0; c < n; ++c) {
        po[c] = v[c] - vi;
      }
    }
  });
}

void BroadcastRow(long n, const double* v, Matrix* out) {
  MZ_CHECK_MSG(out->cols() == n, "BroadcastRow output must have n columns");
  DispatchRows(out->rows(), n, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      std::memcpy(out->row(r), v, static_cast<std::size_t>(n) * sizeof(double));
    }
  });
}

void SetDiagonal(Matrix* m, double c) {
  long base_r = m->row_offset();
  long base_c = m->col_offset();
  for (long r = 0; r < m->rows(); ++r) {
    long global_r = base_r + r;
    long local_c = global_r - base_c;
    if (local_c >= 0 && local_c < m->cols()) {
      m->at(r, local_c) = c;
    }
  }
}

void Gemv(const Matrix* m, const double* v, double* out) {
  long cols = m->cols();
  DispatchRows(m->rows(), cols, [&](long r0, long r1) {
    for (long r = r0; r < r1; ++r) {
      const double* __restrict p = m->row(r);
      double acc = 0;
      for (long c = 0; c < cols; ++c) {
        acc += p[c] * v[c];
      }
      out[r] = acc;
    }
  });
}

void RollRows(const Matrix* a, long shift, Matrix* out) {
  MZ_CHECK_MSG(a != nullptr && out != nullptr, "null matrix argument");
  MZ_CHECK_MSG(a->cols() == out->cols(), "RollRows column mismatch: " << a->cols() << " vs "
                                                                     << out->cols());
  MZ_CHECK_MSG(!Overlaps(a, out), "RollRows output overlaps its input");
  long rows = a->rows();
  long cols = a->cols();
  // A full-height `out` is the whole result; a shorter one is the row band
  // starting at its global row offset.
  long base = out->rows() == rows ? 0 : out->row_offset();
  MZ_CHECK_MSG(base >= 0 && base + out->rows() <= rows,
               "RollRows band [" << base << ", " << base + out->rows() << ") outside "
                                 << rows << " rows");
  if (rows == 0) {
    return;
  }
  long k = (shift % rows + rows) % rows;
  for (long r = 0; r < out->rows(); ++r) {
    long src = base + r - k;
    src += src < 0 ? rows : 0;
    std::memcpy(out->row(r), a->row(src), static_cast<std::size_t>(cols) * sizeof(double));
  }
}

void RollCols(const Matrix* a, long shift, Matrix* out) {
  CheckSameShape(a, nullptr, out);
  MZ_CHECK_MSG(!Overlaps(a, out), "RollCols output overlaps its input");
  long rows = a->rows();
  long cols = a->cols();
  if (cols == 0) {
    return;
  }
  // out[c] = a[(c - shift) mod cols]: the row's tail [cols - k, cols) moves
  // to the front and its head [0, cols - k) follows it, as np.roll does.
  long k = (shift % cols + cols) % cols;
  auto bytes = [](long n) { return static_cast<std::size_t>(n) * sizeof(double); };
  for (long r = 0; r < rows; ++r) {
    const double* pa = a->row(r);
    double* po = out->row(r);
    std::memcpy(po, pa + (cols - k), bytes(k));
    std::memcpy(po + k, pa, bytes(cols - k));
  }
}

void CopyMatrix(const Matrix* a, Matrix* out) { Loops().copy_matrix(a, out); }

double SumAll(const Matrix* m) {
  double acc = 0;
  for (long r = 0; r < m->rows(); ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < m->cols(); ++c) {
      acc += p[c];
    }
  }
  return acc;
}

double MaxAbs(const Matrix* m) {
  double acc = 0;
  for (long r = 0; r < m->rows(); ++r) {
    const double* p = m->row(r);
    for (long c = 0; c < m->cols(); ++c) {
      double v = std::fabs(p[c]);
      acc = v > acc ? v : acc;
    }
  }
  return acc;
}

}  // namespace matrix
