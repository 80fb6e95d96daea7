// Prints the host and build that bench results come from, as one JSON
// object: L2 size, compiler, build type, the code paths vecmath's
// transcendental kernels and the substrates' element-wise loops take, and
// the host's transparent-huge-page mode. scripts/bench.sh stamps it into
// every BENCH file beside "threads" (the logical CPU count), and
// scripts/bench_diff.py refuses files whose host or build keys differ and
// notes differing paths or huge-page modes. The host and build keys have the
// names and sources of perfbench/main.cc's Fingerprint(); the two printers
// must agree on them.
#include <cstdio>
#include <fstream>
#include <string>

#include "common/cpu.h"
#include "vecmath/vecmath.h"

namespace {

// The selected mode in the kernel's "always [madvise] never" line, or "n/a"
// where the kernel has no transparent huge pages.
std::string TransparentHugePages() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  std::size_t open = line.find('[');
  std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return "n/a";
  }
  return line.substr(open + 1, close - open - 1);
}

}  // namespace

int main() {
  std::printf(
      "{\"l2_bytes\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"transcendental_path\": \"%s\", \"log1p_path\": \"%s\", \"simd_loops\": \"%s\", "
      "\"hugepages\": \"%s\"}\n",
      mz::L2CacheBytes(), MZ_COMPILER, MZ_BUILD_TYPE, vecmath::TranscendentalPath(),
      vecmath::Log1pPath(), vecmath::SimdLoopsPath(), TransparentHugePages().c_str());
  return 0;
}
