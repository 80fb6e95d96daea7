// One call surface over the plain and the wrapped libraries: Vec<false> and
// Mat<false> call vecmath/matrix directly, Vec<true> and Mat<true> call the
// annotated wrappers (mzvec/mzmat), which capture instead of running. Each
// pipeline body is written once, as the paper's "no application changes".
#ifndef PERFBENCH_API_H_
#define PERFBENCH_API_H_

#include "matrix/annotated.h"
#include "matrix/matrix.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace perfbench {

#define PERFBENCH_FORWARD(plain, wrapped, fn) \
  template <typename... A>                    \
  static auto fn(A... a) {                    \
    if constexpr (kMozart) {                  \
      return wrapped::fn(a...);               \
    } else {                                  \
      return plain::fn(a...);                 \
    }                                         \
  }

template <bool kMozart>
struct Vec {
  PERFBENCH_FORWARD(vecmath, mzvec, Add)
  PERFBENCH_FORWARD(vecmath, mzvec, AddC)
  PERFBENCH_FORWARD(vecmath, mzvec, Div)
  PERFBENCH_FORWARD(vecmath, mzvec, Erf)
  PERFBENCH_FORWARD(vecmath, mzvec, Exp)
  PERFBENCH_FORWARD(vecmath, mzvec, Log)
  PERFBENCH_FORWARD(vecmath, mzvec, Log1p)
  PERFBENCH_FORWARD(vecmath, mzvec, Mul)
  PERFBENCH_FORWARD(vecmath, mzvec, MulC)
  PERFBENCH_FORWARD(vecmath, mzvec, RSubC)
  PERFBENCH_FORWARD(vecmath, mzvec, Sqrt)
  PERFBENCH_FORWARD(vecmath, mzvec, Sub)
  PERFBENCH_FORWARD(vecmath, mzvec, Sum)
};

template <bool kMozart>
struct Mat {
  PERFBENCH_FORWARD(matrix, mzmat, Add)
  PERFBENCH_FORWARD(matrix, mzmat, AddScaled)
  PERFBENCH_FORWARD(matrix, mzmat, MulScalar)
  PERFBENCH_FORWARD(matrix, mzmat, RollCols)
  PERFBENCH_FORWARD(matrix, mzmat, RollRows)
  PERFBENCH_FORWARD(matrix, mzmat, Sub)
};

#undef PERFBENCH_FORWARD

}  // namespace perfbench

#endif  // PERFBENCH_API_H_
