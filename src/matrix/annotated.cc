#include "matrix/annotated.h"

#include <typeindex>

#include "common/check.h"
#include "core/registry.h"
#include "core/unpack.h"
#include "vecmath/annotated.h"

namespace mzmat {
namespace {

using matrix::Matrix;
using mz::Registry;
using mz::RuntimeInfo;
using mz::SplitContext;
using mz::Value;

const Matrix* MatrixFromValue(const Value& v) {
  if (v.Is<Matrix*>()) {
    return v.As<Matrix*>();
  }
  if (v.Is<Matrix>()) {
    return &v.As<Matrix>();
  }
  MZ_THROW("expected a matrix value, got " << v.type_name());
}

// ---- MatrixSplit<rows, cols, axis> ----

// Constructor: MatrixSplit(m) → row split; MatrixSplit(m, axis) → given
// axis. The matrix's *shape* is capture-time metadata (the paper notes the
// split type must not depend on the data, only the dimensions).
std::optional<std::vector<std::int64_t>> MatrixSplitCtor(std::span<const Value> args) {
  MZ_CHECK_MSG(args.size() == 1 || args.size() == 2,
               "MatrixSplit constructor takes (m) or (m, axis)");
  if (!args[0].has_value()) {
    return std::nullopt;  // matrix still pending: defer
  }
  const Matrix* m = MatrixFromValue(args[0]);
  std::int64_t axis = 0;
  if (args.size() == 2) {
    MZ_CHECK_MSG(args[1].has_value(), "MatrixSplit axis argument is pending");
    axis = mz::ValueToInt64(args[1]);
  }
  MZ_THROW_IF(axis != 0 && axis != 1, "MatrixSplit axis must be 0 or 1, got " << axis);
  return std::vector<std::int64_t>{m->rows(), m->cols(), axis};
}

std::vector<std::int64_t> MatrixSplitLateCtor(const Value& v) {
  const Matrix* m = MatrixFromValue(v);
  return {m->rows(), m->cols(), 0};  // default: row split
}

RuntimeInfo MatrixInfo(Matrix* const& m, std::span<const std::int64_t> params) {
  (void)m;
  MZ_CHECK_MSG(params.size() == 3, "MatrixSplit expects (rows, cols, axis) parameters");
  std::int64_t rows = params[0];
  std::int64_t cols = params[1];
  std::int64_t axis = params[2];
  if (axis == 0) {
    return RuntimeInfo{rows, cols * static_cast<std::int64_t>(sizeof(double))};
  }
  return RuntimeInfo{cols, rows * static_cast<std::int64_t>(sizeof(double))};
}

// Parameter-exact element width (splitter.h WidthForParams): a row split's
// element is one row of `cols` doubles, a column split's one column of
// `rows` doubles. The traits constant stays 0 — the width is unknowable
// without the shape parameters.
std::int64_t MatrixWidth(std::span<const std::int64_t> params) {
  if (params.size() != 3) {
    return 0;
  }
  std::int64_t rows = params[0];
  std::int64_t cols = params[1];
  std::int64_t axis = params[2];
  return (axis == 0 ? cols : rows) * static_cast<std::int64_t>(sizeof(double));
}

Value MatrixSplitFn(Matrix* const& m, std::int64_t start, std::int64_t end,
                    std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)ctx;
  std::int64_t axis = params[2];
  if (axis == 0) {
    return Value::Make<Matrix>(Matrix::RowView(*m, start, end));
  }
  return Value::Make<Matrix>(Matrix::ColView(*m, start, end));
}

// The same split over a piece: carried row bands are Matrix views, not
// Matrix*, and a boundary that merges or sizes them looks the splitter up
// by the piece's type. Info and Split work on the view's own shape. A
// default-typed stream hands no parameters; its split is by rows, as
// MatrixSplitLateCtor's.
std::int64_t ViewAxis(std::span<const std::int64_t> params) {
  return params.size() == 3 ? params[2] : 0;
}

RuntimeInfo MatrixViewInfo(const Matrix& m, std::span<const std::int64_t> params) {
  const auto bytes = static_cast<std::int64_t>(sizeof(double));
  if (ViewAxis(params) == 0) {
    return RuntimeInfo{m.rows(), m.cols() * bytes};
  }
  return RuntimeInfo{m.cols(), m.rows() * bytes};
}

Value MatrixViewSplitFn(const Matrix& m, std::int64_t start, std::int64_t end,
                        std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)ctx;
  if (ViewAxis(params) == 0) {
    return Value::Make<Matrix>(Matrix::RowView(m, start, end));
  }
  return Value::Make<Matrix>(Matrix::ColView(m, start, end));
}

Value MatrixMerge(const Value& original, std::vector<Value> pieces,
                  std::span<const std::int64_t> params) {
  // Pieces are views into the original storage; updates are already visible.
  (void)pieces;
  (void)params;
  return original;
}

// ---- ReduceSplit<axis> (paper Ex. 5) ----

RuntimeInfo ReduceVecInfo(const std::vector<double>& v, std::span<const std::int64_t> params) {
  (void)v;
  (void)params;
  MZ_THROW("ReduceSplit is merge-only; it cannot appear on an argument");
}

Value ReduceVecSplitFn(const std::vector<double>& v, std::int64_t start, std::int64_t end,
                       std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)v;
  (void)start;
  (void)end;
  (void)params;
  (void)ctx;
  MZ_THROW("ReduceSplit is merge-only; it cannot be split");
}

Value ReduceVecMerge(const Value& original, std::vector<Value> pieces,
                     std::span<const std::int64_t> params) {
  (void)original;
  MZ_CHECK_MSG(!pieces.empty(), "ReduceSplit merge with no pieces");
  MZ_CHECK_MSG(params.size() == 1, "ReduceSplit expects an (axis) parameter");
  std::int64_t axis = params[0];
  if (axis == 1) {
    // Disjoint row ranges: concatenate in piece order.
    std::vector<double> out;
    for (Value& piece : pieces) {
      const auto& part = piece.As<std::vector<double>>();
      out.insert(out.end(), part.begin(), part.end());
    }
    return Value::Make<std::vector<double>>(std::move(out));
  }
  // axis == 0: partial column sums — fold elementwise.
  std::vector<double> out = pieces.front().As<std::vector<double>>();
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    const auto& part = pieces[i].As<std::vector<double>>();
    MZ_CHECK_MSG(part.size() == out.size(), "ReduceSplit partial size mismatch");
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] += part[j];
    }
  }
  return Value::Make<std::vector<double>>(std::move(out));
}

// ArraySplit constructor upgrade: length from an integer argument (vecmath
// behaviour) *or* the row count of a matrix argument (Gemv's output).
std::optional<std::vector<std::int64_t>> FlexibleLengthCtor(std::span<const Value> args) {
  MZ_CHECK_MSG(args.size() == 1, "ArraySplit constructor expects one argument");
  if (!args[0].has_value()) {
    return std::nullopt;
  }
  if (args[0].Is<Matrix*>() || args[0].Is<Matrix>()) {
    return std::vector<std::int64_t>{MatrixFromValue(args[0])->rows()};
  }
  return std::vector<std::int64_t>{mz::ValueToInt64(args[0])};
}

// ---- annotation patterns ----

mz::Annotation ElementwiseBinaryAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("a", mz::Generic("S"))
      .Arg("b", mz::Generic("S"))
      .MutArg("out", mz::Generic("S"))
      .Build();
}

mz::Annotation ElementwiseUnaryAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("a", mz::Generic("S"))
      .MutArg("out", mz::Generic("S"))
      .Build();
}

mz::Annotation ElementwiseScalarAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("a", mz::Generic("S"))
      .Arg("c", mz::NoSplit())
      .MutArg("out", mz::Generic("S"))
      .Build();
}

const bool g_registered = [] {
  RegisterSplits();
  return true;
}();

}  // namespace

void RegisterSplits() {
  static const bool done = [] {
    mzvec::RegisterSplits();  // SizeSplit/ArraySplit/Reduce{Add,Max,Min}
    Registry& reg = Registry::Global();

    reg.DefineSplitType("MatrixSplit", MatrixSplitCtor, MatrixSplitLateCtor);
    reg.DefineSplitType("ReduceSplit",
                        [](std::span<const Value> args)
                            -> std::optional<std::vector<std::int64_t>> {
                          MZ_CHECK_MSG(args.size() == 1, "ReduceSplit constructor takes (axis)");
                          if (!args[0].has_value()) {
                            return std::nullopt;
                          }
                          return std::vector<std::int64_t>{mz::ValueToInt64(args[0])};
                        },
                        nullptr);
    // Widen ArraySplit's constructor so SAs can write ArraySplit(m) for
    // arrays sized by a matrix's rows (Gemv output).
    reg.DefineSplitType("ArraySplit", FlexibleLengthCtor, nullptr);

    // Matrix pieces are row/column views into the original storage: merges
    // are identities, so boundary pieces may pass to the next stage intact,
    // and re-batching re-slices the full matrix at any granularity (the
    // identity path — pieces are Matrix values, so piecewise subdivision
    // does not apply). A row's width depends on the shape, so the static
    // element width stays unknown; Info() reports the real bytes per row.
    // The pieces' own type is registered too, as the same split and
    // default, so a boundary that carries row bands can merge them.
    constexpr mz::SplitterTraits kMatrixTraits{.merge_is_identity = true,
                                               .merge_only = false,
                                               .element_width = 0,
                                               .can_subdivide = false};
    mz::RegisterTypedSplitter<Matrix*>(reg, "MatrixSplit", MatrixInfo, MatrixSplitFn,
                                       MatrixMerge, kMatrixTraits, MatrixWidth);
    mz::RegisterTypedSplitter<Matrix>(reg, "MatrixSplit", MatrixViewInfo, MatrixViewSplitFn,
                                      MatrixMerge, kMatrixTraits, MatrixWidth);
    mz::RegisterTypedSplitter<std::vector<double>>(reg, "ReduceSplit", ReduceVecInfo,
                                                   ReduceVecSplitFn, ReduceVecMerge,
                                                   mz::SplitterTraits{.merge_only = true});
    reg.SetDefaultSplitType(std::type_index(typeid(Matrix*)), "MatrixSplit");
    reg.SetDefaultSplitType(std::type_index(typeid(Matrix)), "MatrixSplit");
    return true;
  }();
  (void)done;
}

const BinaryFn Add(matrix::Add, ElementwiseBinaryAnn("mat.Add"));
const BinaryFn Sub(matrix::Sub, ElementwiseBinaryAnn("mat.Sub"));
const BinaryFn Mul(matrix::Mul, ElementwiseBinaryAnn("mat.Mul"));
const BinaryFn Div(matrix::Div, ElementwiseBinaryAnn("mat.Div"));

const UnaryFn Sqrt(matrix::Sqrt, ElementwiseUnaryAnn("mat.Sqrt"));
const UnaryFn Abs(matrix::Abs, ElementwiseUnaryAnn("mat.Abs"));
const UnaryFn Inv(matrix::Inv, ElementwiseUnaryAnn("mat.Inv"));
const UnaryFn CopyMatrix(matrix::CopyMatrix, ElementwiseUnaryAnn("mat.Copy"));

const ScalarFn AddScalar(matrix::AddScalar, ElementwiseScalarAnn("mat.AddScalar"));
const ScalarFn MulScalar(matrix::MulScalar, ElementwiseScalarAnn("mat.MulScalar"));
const ScalarFn Pow(matrix::Pow, ElementwiseScalarAnn("mat.Pow"));
const ScalarFn ClampMagnitude(matrix::ClampMagnitude, ElementwiseScalarAnn("mat.ClampMagnitude"));

const mz::Annotated<void(const Matrix*, double, const Matrix*, Matrix*)> AddScaled(
    matrix::AddScaled, mz::AnnotationBuilder("mat.AddScaled")
                           .Arg("a", mz::Generic("S"))
                           .Arg("alpha", mz::NoSplit())
                           .Arg("b", mz::Generic("S"))
                           .MutArg("out", mz::Generic("S"))
                           .Build());

const mz::Annotated<void(Matrix*, double)> Fill(matrix::Fill,
                                                mz::AnnotationBuilder("mat.Fill")
                                                    .MutArg("m", mz::Generic("S"))
                                                    .Arg("c", mz::NoSplit())
                                                    .Build());

// SetDiagonal is elementwise in disguise: views carry their global offsets,
// so any banding works (Ex. 3-style generic mut).
const mz::Annotated<void(Matrix*, double)> SetDiagonal(matrix::SetDiagonal,
                                                       mz::AnnotationBuilder("mat.SetDiagonal")
                                                           .MutArg("m", mz::Generic("S"))
                                                           .Arg("c", mz::NoSplit())
                                                           .Build());

// Paper Ex. 1: the axis argument parameterizes the split type, so
// axis=0-then-axis=1 sequences merge and re-split between stages.
const mz::Annotated<void(Matrix*, int)> NormalizeAxis(
    matrix::NormalizeAxis, mz::AnnotationBuilder("mat.NormalizeAxis")
                               .MutArg("m", mz::Split("MatrixSplit", {"m", "axis"}))
                               .Arg("axis", mz::NoSplit())
                               .Build());

// Paper Ex. 5: reduce a matrix to a vector. The matrix splits into row
// bands; the result's ReduceSplit<axis> merge reconstructs the vector —
// axis=1 row-sums are complete per band (concatenate), axis=0 column-sums
// are partial per band (add elementwise).
const mz::Annotated<std::vector<double>(const Matrix*, int)> SumReduceToVector(
    matrix::SumReduceToVector, mz::AnnotationBuilder("mat.SumReduceToVector")
                                   .Arg("m", mz::Split("MatrixSplit", {"m"}))
                                   .Arg("axis", mz::NoSplit())
                                   .Returns(mz::Split("ReduceSplit", {"axis"}))
                                   .Build());

const mz::Annotated<void(long, const double*, Matrix*)> OuterDiff(
    matrix::OuterDiff, mz::AnnotationBuilder("mat.OuterDiff")
                           .Arg("n", mz::NoSplit())
                           .Arg("v", mz::NoSplit())
                           .MutArg("out", mz::Split("MatrixSplit", {"out"}))
                           .Build());

const mz::Annotated<void(long, const double*, Matrix*)> BroadcastRow(
    matrix::BroadcastRow, mz::AnnotationBuilder("mat.BroadcastRow")
                              .Arg("n", mz::NoSplit())
                              .Arg("v", mz::NoSplit())
                              .MutArg("out", mz::Split("MatrixSplit", {"out"}))
                              .Build());

// BLAS L2: the matrix splits into row bands, the input vector broadcasts,
// and the output array splits in lockstep with the rows.
const mz::Annotated<void(const Matrix*, const double*, double*)> Gemv(
    matrix::Gemv, mz::AnnotationBuilder("mat.Gemv")
                      .Arg("m", mz::Split("MatrixSplit", {"m"}))
                      .Arg("v", mz::NoSplit())
                      .MutArg("out", mz::Split("ArraySplit", {"m"}))
                      .Build());

// Stencil data movement. RollCols reads only row r to write row r, so both
// matrices split into row bands. The explicit MatrixSplit (not a generic)
// keeps an upstream column split from unifying with it: rolling columns
// needs whole rows. RollRows reads neighbouring rows, so its source is
// broadcast whole ("_") while the output splits into row bands; the
// library finds each band's global rows from the view's row_offset().
const mz::Annotated<void(const Matrix*, long, Matrix*)> RollRows(
    matrix::RollRows, mz::AnnotationBuilder("mat.RollRows")
                          .Arg("a", mz::NoSplit())
                          .Arg("shift", mz::NoSplit())
                          .MutArg("out", mz::Split("MatrixSplit", {"out"}))
                          .Build());
const mz::Annotated<void(const Matrix*, long, Matrix*)> RollCols(
    matrix::RollCols, mz::AnnotationBuilder("mat.RollCols")
                          .Arg("a", mz::Split("MatrixSplit", {"a"}))
                          .Arg("shift", mz::NoSplit())
                          .MutArg("out", mz::Split("MatrixSplit", {"out"}))
                          .Build());

const mz::Annotated<double(const Matrix*)> SumAll(matrix::SumAll,
                                                  mz::AnnotationBuilder("mat.SumAll")
                                                      .Arg("m", mz::Split("MatrixSplit", {"m"}))
                                                      .Returns(mz::Split("ReduceAdd"))
                                                      .Build());

const mz::Annotated<double(const Matrix*)> MaxAbs(matrix::MaxAbs,
                                                  mz::AnnotationBuilder("mat.MaxAbs")
                                                      .Arg("m", mz::Split("MatrixSplit", {"m"}))
                                                      .Returns(mz::Split("ReduceMax"))
                                                      .Build());

std::uint64_t EnsureRegistered() {
  RegisterSplits();
  return mz::Registry::Global().version();
}

}  // namespace mzmat
