// Eight-lane AVX-512 ports of glibc's scalar exp, log and erf (vecmath's
// Exp, Log and Erf kernels). Each lane performs the same IEEE operations in
// the same order as the x86-64 libm the library links against, so every
// output is bit-for-bit what std::exp, std::log and std::erf return; lanes
// outside the ported ranges call those functions directly.
//
// Internal to vecmath: vecmath.cc calls these only while LibmAvx512Active()
// holds, and otherwise keeps its scalar libm loop.
#ifndef MOZART_VECMATH_LIBM_AVX512_H_
#define MOZART_VECMATH_LIBM_AVX512_H_

namespace vecmath::internal {

// True when the CPU has AVX-512F and a one-time self-check found the ports
// bit-identical to this process's libm on a fixed probe set. Thread-safe;
// the first call runs the check.
bool LibmAvx512Active();

// out[i] = std::exp(a[i]) etc. for i in [0, n). `out` may alias `a`.
// Require LibmAvx512Active().
void ExpAvx512(long n, const double* a, double* out);
void LogAvx512(long n, const double* a, double* out);
void ErfAvx512(long n, const double* a, double* out);

}  // namespace vecmath::internal

#endif  // MOZART_VECMATH_LIBM_AVX512_H_
