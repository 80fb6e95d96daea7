// vecmath's IEEE-exact element-wise loops, built once per SIMD path (see
// common/simd.h). The public kernels in vecmath.h run the table the CPU
// selects; tests reach both tables directly.
//
// Internal to vecmath. The libm-backed kernels (libm_avx512.h) and the
// reductions are not here: they have one build each.
#ifndef MOZART_VECMATH_LOOPS_H_
#define MOZART_VECMATH_LOOPS_H_

namespace vecmath::internal {

using UnaryLoop = void (*)(long n, const double* a, double* out);
using BinaryLoop = void (*)(long n, const double* a, const double* b, double* out);
using ScalarLoop = void (*)(long n, const double* a, double c, double* out);

// One entry per kernel of the same name in vecmath.h.
struct ElementwiseLoops {
  UnaryLoop sqrt, abs, neg, inv, sqr, floor, ceil, copy;
  BinaryLoop add, sub, mul, div, max, min, greater_than, less_than;
  ScalarLoop add_c, sub_c, mul_c, div_c, rsub_c, rdiv_c;
  void (*fma)(long n, const double* a, const double* b, const double* c, double* out);
  void (*axpy)(long n, double alpha, const double* x, double* y);
  void (*select)(long n, const double* cond, const double* if_true, const double* if_false,
                 double* out);
  void (*fill)(long n, double c, double* out);
};

// The loops compiled for baseline x86-64, and for AVX-512F. The second may
// run only where mz::CpuHasAvx512F() holds.
const ElementwiseLoops& BaselineLoops();
const ElementwiseLoops& Avx512Loops();

}  // namespace vecmath::internal

#endif  // MOZART_VECMATH_LOOPS_H_
