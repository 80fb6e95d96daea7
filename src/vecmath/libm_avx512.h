// Eight-lane AVX-512 ports of glibc's scalar exp, log, erf and log1p
// (vecmath's Exp, Log, Erf and Log1p kernels). Each lane performs the same
// IEEE operations in the same order as the x86-64 libm the library links
// against, so every output is bit-for-bit what std::exp, std::log, std::erf
// and std::log1p return; lanes outside the ported ranges call those
// functions directly.
//
// Exp, Log and Log1p run one kernel over each 8-lane vector. erf's three
// ranges each have their own polynomial, divide and (above 1.25) two exp
// calls, and Black Scholes' arguments mix the ranges within nearly every
// vector, so a per-vector kernel would run all three bodies on each.
// ErfAvx512 instead sorts each 512-element chunk by range (AVX-512
// compress), runs each range's kernel only over its own lanes and expands
// the results back into input order; runs of vectors that lie in one range
// skip the sorting.
//
// Internal to vecmath: vecmath.cc calls these only while their gate
// (LibmAvx512Active() or Log1pAvx512Active()) holds, and otherwise keeps its
// scalar libm loop.
#ifndef MOZART_VECMATH_LIBM_AVX512_H_
#define MOZART_VECMATH_LIBM_AVX512_H_

namespace vecmath::internal {

// True when the CPU has AVX-512F and a one-time self-check found the ports
// bit-identical to this process's libm on a fixed probe set. Thread-safe;
// the first call runs the check.
bool LibmAvx512Active();

// The same for log1p alone, with its own self-check, so a process that only
// calls Log1p never runs the exp, log and erf probes.
bool Log1pAvx512Active();

// out[i] = std::exp(a[i]) etc. for i in [0, n). `out` may alias `a`.
// Exp, Log and Erf require LibmAvx512Active(); Log1p requires
// Log1pAvx512Active().
void ExpAvx512(long n, const double* a, double* out);
void LogAvx512(long n, const double* a, double* out);
void ErfAvx512(long n, const double* a, double* out);
void Log1pAvx512(long n, const double* a, double* out);

}  // namespace vecmath::internal

#endif  // MOZART_VECMATH_LIBM_AVX512_H_
