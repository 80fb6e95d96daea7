// Hand-fused, parallelized kernels per workload: the stand-in for the
// optimizing compilers the paper compares against (Weld, Bohrium, Numba).
//
// A data-movement-optimizing JIT's end state for these pipelines is a single
// fused parallel loop that keeps intermediates in registers; these kernels
// are exactly that, written by hand (see DESIGN.md §3 for the substitution
// argument). They also include the compute optimizations such compilers
// apply where profitable — e.g. the image kernels compose whole chains of
// 256-entry LUTs into one table before a single pass over the pixels, which
// is why (as in the paper) compilers can beat Mozart on compute-heavy
// pipelines while Mozart wins where hand-optimized library internals
// dominate.
//
// A fused kernel stands for the data-movement ceiling, so it should do the
// same per-element math as the library calls it replaces. Cross-element
// reductions are summed per thread and then combined, so their order
// differs. The per-element deviations that remain:
//   BlackScholesFused: N(x) is 0.5 * (1 + erf(x / sqrt(2))), where the
//     library multiplies by a precomputed 1 / sqrt(2); N(-d) is evaluated
//     directly, where the library computes 1 - N(d). It also calls scalar
//     libm per element: four std::erf, one std::log and one std::exp,
//     where the library calls Erf twice and runs Exp, Log and Erf as
//     eight-lane AVX-512 ports of the same libm code on AVX-512F CPUs.
//     Fig. 1's Mozart-over-fused ratio therefore includes the library's
//     hand-vectorized kernels, as the paper's MKL comparison does.
//   HaversineFused: multiplies cos(lat0) * cos(lat) * sin^2 in the opposite
//     order from the library chain (sin^2 * cos(lat) * cos(lat0)).
//   MovieLensFused: joins through a user -> gender map, so it assumes unique
//     user keys, where the library join emits one row per duplicate.
//   NBodyStepFused, ShallowWaterStepFused, CrimeIndexFused,
//   DataCleaningFused, BirthAnalysisFused, FusedPointPipeline: none.
#ifndef MOZART_BASELINES_FUSED_H_
#define MOZART_BASELINES_FUSED_H_

#include <cstdint>
#include <span>

#include "dataframe/dataframe.h"
#include "image/image.h"
#include "matrix/matrix.h"

namespace baselines {

// Fused Black Scholes: one pass computing call and put per element.
void BlackScholesFused(long n, const double* price, const double* strike, const double* tte,
                       double rate, double vol, double* call, double* put, int threads);

// Fused Haversine distance from (lat, lon) arrays to a fixed point.
void HaversineFused(long n, const double* lat, const double* lon, double lat0, double lon0,
                    double* dist, int threads);

// Fused nBody acceleration + leapfrog update: one pass over the (i, j) pair
// space per step, accumulating forces in registers. The inverse cube
// distance is std::pow(r2, -1.5), as matrix::Pow computes it.
void NBodyStepFused(long n, double* x, double* y, double* z, double* vx, double* vy, double* vz,
                    double dt, double softening, int threads);

// Fused shallow-water step: one stencil sweep per half-step instead of a
// dozen whole-grid temporaries.
void ShallowWaterStepFused(matrix::Matrix* h, matrix::Matrix* u, matrix::Matrix* v,
                           matrix::Matrix* h2, matrix::Matrix* u2, matrix::Matrix* v2, double dt,
                           double dx, double g, int threads);

// Fused crime index: filter + index computation + aggregation in one pass.
double CrimeIndexFused(const df::DataFrame& cities, int threads);

// Fused data cleaning: one pass over the zip strings producing the count of
// rows that become NaN and the sum of valid parsed zips (the checksums the
// workload reports).
void DataCleaningFused(const df::DataFrame& requests, double* nan_count, double* valid_sum,
                       int threads);

// Fused birth analysis: filter + two-key group-by in one pass with
// per-thread maps merged at the end. Returns (year, gender) → sum frame.
df::DataFrame BirthAnalysisFused(const df::DataFrame& births, int threads);

// Fused MovieLens: hash-join ratings with users and group mean rating by
// (movie, gender) in a single probe pass.
df::DataFrame MovieLensFused(const df::DataFrame& ratings, const df::DataFrame& users,
                             int threads);

// One step of an image filter recipe. Recipes are shared between the
// library-call implementations (base / Mozart) and the fused baseline so
// every mode computes the same pixels.
struct PointOp {
  enum class Kind {
    kGamma,               // p0 = gamma
    kLevel,               // p0 = black, p1 = white, p2 = gamma
    kColorize,            // rgb[] = target, p0 = alpha
    kModulate,            // p0 = brightness%, p1 = saturation%, p2 = hue%
    kSigmoidalContrast,   // p0 = contrast, p1 = midpoint
    kBrightnessContrast,  // p0 = brightness, p1 = contrast
  };
  Kind kind;
  double p0 = 0;
  double p1 = 0;
  double p2 = 0;
  std::uint8_t rgb[3] = {0, 0, 0};
};

// Runs a recipe the way a fusing compiler would: adjacent LUT-able ops are
// composed into a single per-channel table applied in one pass; HSV ops
// (cross-channel) execute as their own fused passes.
void FusedPointPipeline(img::Image* image, std::span<const PointOp> recipe, int threads);

// The Instagram-filter recipes used by the Fig. 4n–o workloads.
std::span<const PointOp> NashvilleRecipe();
std::span<const PointOp> GothamRecipe();

}  // namespace baselines

#endif  // MOZART_BASELINES_FUSED_H_
