// Unit tests for AlignedBuffer: 64-byte alignment, move semantics, the
// cache-set coloring of successive allocations, and the huge-page path that
// large AlignedBuffers and matrix::Matrix storage share.
#include "common/aligned.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "matrix/matrix.h"

namespace mz {
namespace {

std::uintptr_t Addr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

bool IsAligned(const void* p) { return Addr(p) % kBufferAlignment == 0; }

// The offset of a large array's data from its 2 MiB-aligned base, which must
// be one of the colour offsets.
void ExpectColourOffsetFromHugePage(const void* data, std::set<std::uintptr_t>* offsets) {
  const std::uintptr_t offset = Addr(data) % kHugePageBytes;
  EXPECT_EQ(offset % kColorStrideBytes, 0u) << "base is not 2 MiB-aligned";
  EXPECT_LT(offset, kNumColors * kColorStrideBytes) << "base is not 2 MiB-aligned";
  offsets->insert(offset);
}

// True when the kernel supports transparent huge pages, so madvise
// (MADV_HUGEPAGE) can succeed.
bool HasTransparentHugePages() {
  return std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled").good();
}

// The mapping of this process that contains `p`, read from
// /proc/self/smaps: where it ends, and whether it is advised onto huge pages
// ("hg" among its VmFlags).
struct Mapping {
  std::uintptr_t end = 0;
  bool huge_advised = false;
};

Mapping MappingOf(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  Mapping m;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= Addr(p) && Addr(p) < hi;
      if (inside) {
        m.end = hi;
      }
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      m.huge_advised = (line + " ").find(" hg ") != std::string::npos;
      return m;
    }
  }
  return m;
}

// The advised range starts at the base and ends at the last whole 2 MiB page
// inside the `total`-byte allocation; where the kernel supports huge pages,
// that is exactly the mapping /proc/self/smaps marks "hg".
void ExpectAdvisedToLastWholePage(const void* base, std::size_t huge_bytes, std::size_t total) {
  EXPECT_EQ(huge_bytes % kHugePageBytes, 0u);
  EXPECT_LE(huge_bytes, total);
  EXPECT_GT(huge_bytes + kHugePageBytes, total) << "a whole 2 MiB page was left unadvised";
  if (!HasTransparentHugePages()) {
    return;
  }
  Mapping m = MappingOf(base);
  EXPECT_TRUE(m.huge_advised) << "the buffer's first page is not advised onto huge pages";
  EXPECT_EQ(m.end, Addr(base) + huge_bytes) << "advised range does not end at the last whole page";
}

TEST(AlignedBufferTest, DataIsCacheLineAligned) {
  AlignedBuffer<double> buf(1000);
  EXPECT_TRUE(IsAligned(buf.data()));
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_FALSE(buf.empty());
}

TEST(AlignedBufferTest, DefaultAndZeroSizeAreEmpty) {
  AlignedBuffer<double> def;
  EXPECT_TRUE(def.empty());
  EXPECT_EQ(def.size(), 0u);
  AlignedBuffer<double> zero(0);
  EXPECT_TRUE(zero.empty());
  EXPECT_EQ(zero.data(), nullptr);
}

TEST(AlignedBufferTest, ElementsReadBackAfterFillAndIndexing) {
  AlignedBuffer<int> buf(257);
  buf.Fill(-3);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], -3);
  }
  buf[256] = 42;
  EXPECT_EQ(buf[256], 42);
  EXPECT_EQ(buf.end() - buf.begin(), 257);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer<double> a(64);
  a.Fill(1.5);
  double* data = a.data();
  AlignedBuffer<double> b(std::move(a));
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_DOUBLE_EQ(b[63], 1.5);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move): asserting moved-from state
  EXPECT_EQ(a.size(), 0u);

  AlignedBuffer<double> c(8);
  c = std::move(b);
  EXPECT_EQ(c.data(), data);
  EXPECT_EQ(c.size(), 64u);
}

TEST(AlignedBufferTest, MoveAssignToSelfIsSafe) {
  AlignedBuffer<int> a(16);
  a.Fill(7);
  AlignedBuffer<int>& alias = a;
  a = std::move(alias);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a[15], 7);
}

TEST(AlignedBufferTest, EveryAllocationStaysAlignedAcrossColors) {
  // Coloring offsets bases by multiples of 8 KiB — all of which are multiples
  // of the 64-byte alignment, so data() must stay aligned for every color.
  std::vector<AlignedBuffer<double>> bufs;
  std::set<std::uintptr_t> page_offsets;
  for (int i = 0; i < 2 * static_cast<int>(kNumColors); ++i) {
    bufs.emplace_back(4096);
    EXPECT_TRUE(IsAligned(bufs.back().data()));
    page_offsets.insert(reinterpret_cast<std::uintptr_t>(bufs.back().data()) %
                        (kNumColors * kColorStrideBytes));
  }
  // The coloring must actually spread allocations: with 32 equal-size
  // allocations and 16 colors we expect several distinct offsets.
  EXPECT_GT(page_offsets.size(), 1u);
}

TEST(AlignedBufferTest, LargeAllocationsSitOnWholeHugePages) {
  // Sizes just over 5 MiB: the allocation ends inside its third huge page.
  std::set<std::uintptr_t> offsets;
  for (std::size_t i = 0; i < kNumColors + 1; ++i) {
    const std::size_t bytes = (std::size_t{5} << 20) + 8 * i;
    internal::ArrayAllocation a = internal::AllocateArray(bytes);
    EXPECT_EQ(Addr(a.base) % kHugePageBytes, 0u);
    const std::size_t color = static_cast<std::size_t>(a.data - static_cast<char*>(a.base));
    EXPECT_EQ(color % kColorStrideBytes, 0u);
    EXPECT_LT(color, kNumColors * kColorStrideBytes);
    offsets.insert(color);
    const std::size_t total = (bytes + kBufferAlignment - 1) / kBufferAlignment * kBufferAlignment +
                              color;
    ExpectAdvisedToLastWholePage(a.base, a.huge_bytes, total);
    std::free(a.base);
  }
  EXPECT_EQ(offsets.size(), kNumColors) << "large allocations lost their colour offsets";
}

TEST(AlignedBufferTest, LargeBufferReadsBackOnHugePages) {
  std::set<std::uintptr_t> offsets;
  for (int i = 0; i < 2; ++i) {
    AlignedBuffer<double> buf((std::size_t{5} << 20) / sizeof(double));
    ExpectColourOffsetFromHugePage(buf.data(), &offsets);
    const char* base = reinterpret_cast<const char*>(buf.data()) - Addr(buf.data()) % kHugePageBytes;
    ExpectAdvisedToLastWholePage(base, std::size_t{4} << 20,
                                 static_cast<std::size_t>(
                                     reinterpret_cast<const char*>(buf.end()) - base));
    for (std::size_t k = 0; k < buf.size(); ++k) {
      buf[k] = static_cast<double>(k) * 0.5;
    }
    for (std::size_t k = 0; k < buf.size(); ++k) {
      ASSERT_EQ(buf[k], static_cast<double>(k) * 0.5) << k;
    }
  }
  EXPECT_EQ(offsets.size(), 2u) << "successive buffers share a colour";
}

TEST(AlignedBufferTest, LargeMatrixReadsBackOnHugePages) {
  std::set<std::uintptr_t> offsets;
  matrix::Matrix m(1024, 640);  // 5 MiB
  ExpectColourOffsetFromHugePage(m.data(), &offsets);
  const char* base = reinterpret_cast<const char*>(m.data()) - Addr(m.data()) % kHugePageBytes;
  ExpectAdvisedToLastWholePage(
      base, std::size_t{4} << 20,
      static_cast<std::size_t>(reinterpret_cast<const char*>(m.row(m.rows())) - base));
  for (long r = 0; r < m.rows(); ++r) {
    for (long c = 0; c < m.cols(); ++c) {
      ASSERT_EQ(m.at(r, c), 0.0) << "storage is not zero-initialized";
      m.at(r, c) = static_cast<double>(r * m.cols() + c);
    }
  }
  for (long r = 0; r < m.rows(); ++r) {
    for (long c = 0; c < m.cols(); ++c) {
      ASSERT_EQ(m.at(r, c), static_cast<double>(r * m.cols() + c));
    }
  }
}

TEST(AlignedBufferTest, SmallAllocationsKeepTheCacheLinePath) {
  internal::ArrayAllocation a = internal::AllocateArray(kHugePageMinBytes - 8);
  EXPECT_TRUE(IsAligned(a.base));
  EXPECT_TRUE(IsAligned(a.data));
  EXPECT_EQ(a.huge_bytes, 0u);
  std::free(a.base);
  AlignedBuffer<double> buf(kHugePageMinBytes / sizeof(double) - 1);
  EXPECT_TRUE(IsAligned(buf.data()));
}

}  // namespace
}  // namespace mz
