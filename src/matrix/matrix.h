// matrix: a dense row-major matrix library in the mold of MKL's BLAS L2 /
// NumPy's 2-D ndarray operations (substrate for the nBody and Shallow Water
// workloads and for the paper's matrix-split examples, Listing 4).
//
// Conventions:
//  * functions take `const Matrix*` inputs and `Matrix*` outputs that the
//    caller allocates (MKL style) — outputs may alias inputs;
//  * a Matrix may be a *view*: a non-owning window over a row or column
//    range of a parent matrix (shared storage, explicit stride). Views are
//    how MatrixSplit hands row/column pieces to unmodified functions, and
//    `row_offset()/col_offset()` give library functions their global
//    coordinates (as a submatrix API in LAPACK would);
//  * axis = 0 means "operate over rows" (split into row bands),
//    axis = 1 means "operate over columns" (split into column bands);
//  * like vecmath, the library has an internal parallel mode standing in for
//    MKL's threaded BLAS; Mozart never sees it.
#ifndef MOZART_MATRIX_MATRIX_H_
#define MOZART_MATRIX_MATRIX_H_

#include <memory>
#include <vector>

namespace matrix {

class Matrix {
 public:
  Matrix() = default;

  // Owning, zero-initialized rows x cols matrix (64-byte aligned rows base).
  Matrix(long rows, long cols);

  // A view over rows [r0, r1) of `parent` (shared storage).
  static Matrix RowView(const Matrix& parent, long r0, long r1);

  // A view over columns [c0, c1) of `parent` (shared storage).
  static Matrix ColView(const Matrix& parent, long c0, long c1);

  long rows() const { return rows_; }
  long cols() const { return cols_; }
  long stride() const { return stride_; }
  bool is_view() const { return row_offset_ != 0 || col_offset_ != 0 || stride_ != cols_; }

  // Global coordinates of this view's (0, 0) within the root matrix.
  long row_offset() const { return row_offset_; }
  long col_offset() const { return col_offset_; }

  double* data() { return data_; }
  const double* data() const { return data_; }
  double* row(long r) { return data_ + r * stride_; }
  const double* row(long r) const { return data_ + r * stride_; }
  double& at(long r, long c) { return data_[r * stride_ + c]; }
  double at(long r, long c) const { return data_[r * stride_ + c]; }

  // Deep copy with tight stride.
  Matrix Clone() const;

 private:
  std::shared_ptr<double[]> storage_;
  double* data_ = nullptr;
  long rows_ = 0;
  long cols_ = 0;
  long stride_ = 0;
  long row_offset_ = 0;
  long col_offset_ = 0;
};

// Internal parallelism control (mirrors vecmath::SetNumThreads).
void SetNumThreads(int threads);
int GetNumThreads();

// --- elementwise matrix ∘ matrix: out = a ∘ b (shapes must match) ---
void Add(const Matrix* a, const Matrix* b, Matrix* out);
void Sub(const Matrix* a, const Matrix* b, Matrix* out);
void Mul(const Matrix* a, const Matrix* b, Matrix* out);
void Div(const Matrix* a, const Matrix* b, Matrix* out);

// --- elementwise matrix ∘ scalar ---
void AddScalar(const Matrix* a, double c, Matrix* out);
void MulScalar(const Matrix* a, double c, Matrix* out);
void Fill(Matrix* m, double c);

// out = a + alpha * b (fused update used heavily by the simulations).
void AddScaled(const Matrix* a, double alpha, const Matrix* b, Matrix* out);

// --- elementwise unary ---
void Sqrt(const Matrix* a, Matrix* out);
void Abs(const Matrix* a, Matrix* out);
void Pow(const Matrix* a, double exponent, Matrix* out);
void Inv(const Matrix* a, Matrix* out);  // 1 / a[i][j]

// Clamp small magnitudes: out = sign(a) * max(|a|, eps) (softening used by
// nBody to avoid division blowup at zero distance).
void ClampMagnitude(const Matrix* a, double eps, Matrix* out);

// --- paper Listing 4 examples ---

// Ex. 1: normalize along an axis: axis=0 scales each row to unit sum,
// axis=1 scales each column to unit sum. Requires full rows/columns, which
// is why the SA splits by `axis`.
void NormalizeAxis(Matrix* m, int axis);

// Ex. 5: reduce to a vector by summing. axis=0 sums down each column
// (result length = cols; pieces are partial sums), axis=1 sums across each
// row (result length = rows; pieces are disjoint row ranges).
std::vector<double> SumReduceToVector(const Matrix* m, int axis);

// --- outer products / broadcasts (nBody substrate) ---

// out[i][j] = v[j] - v[i]; uses the view's global row offset so it works on
// row bands.
void OuterDiff(long n, const double* v, Matrix* out);

// out[i][j] = v[j] (row broadcast).
void BroadcastRow(long n, const double* v, Matrix* out);

// Writes `c` on the global diagonal (view-aware).
void SetDiagonal(Matrix* m, double c);

// out[i] = sum_j m[i][j] * v[j] — matrix-vector product (BLAS L2 gemv).
void Gemv(const Matrix* m, const double* v, double* out);

// --- data movement (Shallow Water substrate; np.roll semantics:
// out[i] = a[(i - shift) mod n] for any shift, negative or >= n) ---

// Rolls rows. `a` holds all n rows; `out` is either the whole result or a
// row band of it covering global rows [out->row_offset(), +out->rows())
// (view-aware, like OuterDiff), so row-band pieces of `out` can each be
// filled from the full source. `out` must not overlap `a`.
void RollRows(const Matrix* a, long shift, Matrix* out);
// Rolls each row's columns with two contiguous copies per row. Row r of
// `out` reads only row r of `a`, so row bands of both roll independently.
// `out` must not overlap `a`.
void RollCols(const Matrix* a, long shift, Matrix* out);
void CopyMatrix(const Matrix* a, Matrix* out);

// --- whole-matrix reductions ---
double SumAll(const Matrix* m);
double MaxAbs(const Matrix* m);

}  // namespace matrix

#endif  // MOZART_MATRIX_MATRIX_H_
