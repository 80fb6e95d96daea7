// Prints the host and build that bench results come from, as one JSON
// object: L2 size, compiler, build type and the code paths vecmath's
// transcendental kernels take. scripts/bench.sh stamps it into every BENCH
// file beside "threads" (the logical CPU count), and scripts/bench_diff.py
// refuses files whose host or build keys differ. Those keys have the names
// and sources of perfbench/main.cc's Fingerprint(); the two printers must
// agree on them.
#include <cstdio>

#include "common/cpu.h"
#include "vecmath/vecmath.h"

int main() {
  std::printf(
      "{\"l2_bytes\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"transcendental_path\": \"%s\", \"log1p_path\": \"%s\"}\n",
      mz::L2CacheBytes(), MZ_COMPILER, MZ_BUILD_TYPE,
      vecmath::TranscendentalPath(), vecmath::Log1pPath());
  return 0;
}
