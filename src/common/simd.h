// Run-time ISA dispatch for the substrates' element-wise loops.
//
// MKL picks AVX-512 kernels at run time; our stand-ins compile for baseline
// x86-64, where GCC vectorizes each element-wise loop into 2-lane SSE2 code.
// vecmath and matrix therefore build every IEEE-exact element-wise loop
// twice: once as today's baseline code and once inside a function compiled
// for AVX-512F, where the same loop becomes 8-lane zmm code. Each lane of a
// packed add, subtract, multiply, divide, square root, compare, min, max or
// blend rounds exactly as its scalar form, and -ffp-contract=off keeps both
// instantiations from fusing a multiply into an add, so the two produce the
// same bytes. The library picks one once per process, from CPUID.
#ifndef MOZART_COMMON_SIMD_H_
#define MOZART_COMMON_SIMD_H_

namespace mz {

enum class SimdLoops { kBaseline, kAvx512 };

// True when the CPU and OS support AVX-512F (zmm registers).
bool CpuHasAvx512F();

namespace internal {

#if defined(__x86_64__) && defined(__GNUC__)
// `flatten` inlines the loop body, and the element operation inside it, into
// the AVX-512 function, so the vectorizer sees the loop there. Only this
// function carries the target; the loop bodies stay baseline functions, which
// may be inlined into a function with more ISA but never the other way.
#if defined(__clang__)
#define MZ_AVX512_LOOPS __attribute__((target("avx512f"), flatten))
#else
#define MZ_AVX512_LOOPS __attribute__((target("avx512f,prefer-vector-width=512"), flatten))
#endif
#else
#define MZ_AVX512_LOOPS
#endif

template <typename Body>
MZ_AVX512_LOOPS void RunAvx512(const Body& body, long lo, long hi) {
  body(lo, hi);
}

}  // namespace internal

// Runs body(lo, hi), one chunk of an element-wise loop, as the code built
// for path S. Callers pick S == kAvx512 only when CpuHasAvx512F() holds.
template <SimdLoops S, typename Body>
void RunLoop(const Body& body, long lo, long hi) {
  if constexpr (S == SimdLoops::kAvx512) {
    internal::RunAvx512(body, lo, hi);
  } else {
    body(lo, hi);
  }
}

}  // namespace mz

#endif  // MOZART_COMMON_SIMD_H_
