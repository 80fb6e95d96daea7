// vecmath: a hand-optimized vector math library in the mold of Intel MKL's
// VML / L1 BLAS (the paper's closed-source substrate; see DESIGN.md §3 for
// the substitution rationale).
//
// Semantics follow MKL's vector math conventions:
//  * every function takes an element count and raw pointers;
//  * outputs are written in place into caller-provided buffers (out may
//    alias an input, as in `vdLog1p(n, d1, d1)`);
//  * like MKL, the library parallelizes *internally*: calls over large
//    arrays fan out across a thread pool (stand-in for MKL's TBB backing),
//    calls under the grain size run serially. `SetNumThreads(1)` yields the
//    "single-threaded library" baselines (NumPy mode in the benchmarks).
//
// None of these functions know anything about Mozart — that is the point.
// The split annotations live entirely in annotated.h.
#ifndef MOZART_VECMATH_VECMATH_H_
#define MOZART_VECMATH_VECMATH_H_

namespace vecmath {

// Internal parallelism control (process-wide, like mkl_set_num_threads).
void SetNumThreads(int threads);
int GetNumThreads();

// Calls with fewer elements than this run serially even in parallel mode.
inline constexpr long kParallelGrain = 1 << 15;

// The code Exp, Log and Erf run: "avx512" for eight-lane ports of glibc's
// own exp, log and erf (bit-identical to std::exp, std::log and std::erf;
// chosen on AVX-512F CPUs once a self-check against this process's libm
// passes), "scalar" for one libm call per element. The other transcendental
// kernels always call libm per element.
const char* TranscendentalPath();

// --- unary: out[i] = f(a[i]) ---
void Sqrt(long n, const double* a, double* out);
void Exp(long n, const double* a, double* out);
void Log(long n, const double* a, double* out);
void Log1p(long n, const double* a, double* out);
void Erf(long n, const double* a, double* out);
void Sin(long n, const double* a, double* out);
void Cos(long n, const double* a, double* out);
void Tan(long n, const double* a, double* out);
void Asin(long n, const double* a, double* out);
void Acos(long n, const double* a, double* out);
void Atan(long n, const double* a, double* out);
void Abs(long n, const double* a, double* out);
void Neg(long n, const double* a, double* out);
void Inv(long n, const double* a, double* out);
void Sqr(long n, const double* a, double* out);
void Floor(long n, const double* a, double* out);
void Ceil(long n, const double* a, double* out);

// --- binary: out[i] = f(a[i], b[i]) ---
void Add(long n, const double* a, const double* b, double* out);
void Sub(long n, const double* a, const double* b, double* out);
void Mul(long n, const double* a, const double* b, double* out);
void Div(long n, const double* a, const double* b, double* out);
void Pow(long n, const double* a, const double* b, double* out);
void Atan2(long n, const double* a, const double* b, double* out);
void Hypot(long n, const double* a, const double* b, double* out);
void Max(long n, const double* a, const double* b, double* out);
void Min(long n, const double* a, const double* b, double* out);

// --- array ∘ scalar: out[i] = f(a[i], c) ---
void AddC(long n, const double* a, double c, double* out);
void SubC(long n, const double* a, double c, double* out);
void MulC(long n, const double* a, double c, double* out);
void DivC(long n, const double* a, double c, double* out);
void RSubC(long n, const double* a, double c, double* out);  // c - a[i]
void RDivC(long n, const double* a, double c, double* out);  // c / a[i]
void PowC(long n, const double* a, double c, double* out);   // a[i]^c

// --- fused ternary ---
void Fma(long n, const double* a, const double* b, const double* c, double* out);  // a*b + c

// --- L1 BLAS style ---
void Axpy(long n, double alpha, const double* x, double* y);  // y += alpha * x
void Copy(long n, const double* a, double* out);
void Fill(long n, double c, double* out);

// --- reductions ---
double Sum(long n, const double* a);
double Dot(long n, const double* a, const double* b);
double MaxReduce(long n, const double* a);
double MinReduce(long n, const double* a);

// Predicate selection: out[i] = cond[i] != 0.0 ? if_true[i] : if_false[i].
void Select(long n, const double* cond, const double* if_true, const double* if_false,
            double* out);

// Comparison producing a 0/1 mask: out[i] = a[i] > b[i].
void GreaterThan(long n, const double* a, const double* b, double* out);
void LessThan(long n, const double* a, const double* b, double* out);

}  // namespace vecmath

#endif  // MOZART_VECMATH_VECMATH_H_
