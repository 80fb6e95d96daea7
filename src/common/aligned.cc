#include "common/aligned.h"

#include <sys/mman.h>

#include <atomic>
#include <new>

namespace mz::internal {
namespace {

std::size_t NextColorOffset() {
  static std::atomic<std::size_t> counter{0};
  return (counter.fetch_add(1, std::memory_order_relaxed) % kNumColors) * kColorStrideBytes;
}

}  // namespace

ArrayAllocation AllocateArray(std::size_t bytes) {
  const std::size_t color = NextColorOffset();
  const std::size_t total =
      (bytes + kBufferAlignment - 1) / kBufferAlignment * kBufferAlignment + color;
  const bool huge = bytes >= kHugePageMinBytes;
  void* base = nullptr;
  if (posix_memalign(&base, huge ? kHugePageBytes : kBufferAlignment, total) != 0) {
    throw std::bad_alloc();
  }
  ArrayAllocation a{base, static_cast<char*>(base) + color, 0};
#ifdef MADV_HUGEPAGE
  if (huge) {
    // Best effort: on failure the array stays on 4 KiB pages.
    a.huge_bytes = total / kHugePageBytes * kHugePageBytes;
    madvise(base, a.huge_bytes, MADV_HUGEPAGE);
  }
#endif
  return a;
}

}  // namespace mz::internal
