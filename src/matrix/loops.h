// matrix's IEEE-exact element-wise loops, built once per SIMD path (see
// common/simd.h). The public functions in matrix.h run the table the CPU
// selects; tests reach both tables directly.
//
// Internal to matrix. Pow (libm per element), the reductions, the rolls and
// the broadcasts are not here: they have one build each.
#ifndef MOZART_MATRIX_LOOPS_H_
#define MOZART_MATRIX_LOOPS_H_

#include "matrix/matrix.h"

namespace matrix::internal {

using UnaryLoop = void (*)(const Matrix* a, Matrix* out);
using BinaryLoop = void (*)(const Matrix* a, const Matrix* b, Matrix* out);
using ScalarLoop = void (*)(const Matrix* a, double c, Matrix* out);

// One entry per function of the same name in matrix.h.
struct ElementwiseLoops {
  BinaryLoop add, sub, mul, div;
  ScalarLoop add_scalar, mul_scalar, clamp_magnitude;
  UnaryLoop sqrt, abs, inv, copy_matrix;
  void (*fill)(Matrix* m, double c);
  void (*add_scaled)(const Matrix* a, double alpha, const Matrix* b, Matrix* out);
};

// The loops compiled for baseline x86-64, and for AVX-512F. The second may
// run only where mz::CpuHasAvx512F() holds.
const ElementwiseLoops& BaselineLoops();
const ElementwiseLoops& Avx512Loops();

}  // namespace matrix::internal

#endif  // MOZART_MATRIX_LOOPS_H_
