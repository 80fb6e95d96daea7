// Split annotations for the matrix library — the paper's Listing 4 made
// concrete:
//
//  * MatrixSplit<rows, cols, axis> — Ex. 1: a matrix split into row bands
//    (axis=0) or column bands (axis=1); pieces are views sharing storage,
//    so in-place updates need no merge. The constructor maps (m [, axis])
//    function arguments to the parameters; omitting axis means row split.
//  * generics ("S") — Ex. 2/3: elementwise operations accept matrices split
//    any way; inference pins them to their neighbours' split or to the
//    registered default (row split).
//  * ReduceSplit<axis> — Ex. 5: SumReduceToVector's return type; pieces are
//    std::vector<double> partials, merged by concatenation (axis=1, disjoint
//    row ranges) or elementwise addition (axis=0, partial column sums).
//  * Rolls (the Shallow Water stencil, §8.2) split by output row bands:
//    RollRows reads its whole source as a halo (mz::Halo(): broadcast like
//    "_", charged per row) and writes row-band views of its output, found
//    by their global row offsets; RollCols reads only row r
//    for row r, so it row-splits both sides. A Shallow Water step plans as
//    one pipelined stage.
#ifndef MOZART_MATRIX_ANNOTATED_H_
#define MOZART_MATRIX_ANNOTATED_H_

#include <cstdint>
#include <vector>

#include "core/client.h"
#include "matrix/matrix.h"

namespace mzmat {

// Registers MatrixSplit/ReduceSplit (and upgrades ArraySplit's constructor
// to also accept a matrix argument, for Gemv-style outputs). Idempotent.
void RegisterSplits();
// Serving-startup hook: forces registration (immune to the static-archive
// link-order pitfall) and returns the registry version afterwards. Call
// before spawning session threads so lazy registration cannot invalidate
// cached plans mid-traffic (core/plan_cache.h keys on the version).
std::uint64_t EnsureRegistered();

using matrix::Matrix;

using BinaryFn = mz::Annotated<void(const Matrix*, const Matrix*, Matrix*)>;
using UnaryFn = mz::Annotated<void(const Matrix*, Matrix*)>;
using ScalarFn = mz::Annotated<void(const Matrix*, double, Matrix*)>;

extern const BinaryFn Add, Sub, Mul, Div;
extern const UnaryFn Sqrt, Abs, Inv, CopyMatrix;
extern const ScalarFn AddScalar, MulScalar, Pow, ClampMagnitude;
extern const mz::Annotated<void(const Matrix*, double, const Matrix*, Matrix*)> AddScaled;
extern const mz::Annotated<void(Matrix*, double)> Fill, SetDiagonal;
extern const mz::Annotated<void(Matrix*, int)> NormalizeAxis;
extern const mz::Annotated<std::vector<double>(const Matrix*, int)> SumReduceToVector;
extern const mz::Annotated<void(long, const double*, Matrix*)> OuterDiff, BroadcastRow;
extern const mz::Annotated<void(const Matrix*, const double*, double*)> Gemv;
extern const mz::Annotated<void(const Matrix*, long, Matrix*)> RollRows, RollCols;
extern const mz::Annotated<double(const Matrix*)> SumAll, MaxAbs;

}  // namespace mzmat

#endif  // MOZART_MATRIX_ANNOTATED_H_
