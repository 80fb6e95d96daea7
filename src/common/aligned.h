// Cache-line-aligned heap buffers. The vector-math substrate (our MKL
// stand-in) assumes 64-byte alignment so the compiler can emit aligned SIMD
// loads, and Mozart's executor allocates split scratch buffers through this
// type as well. matrix::Matrix allocates its storage the same way.
#ifndef MOZART_COMMON_ALIGNED_H_
#define MOZART_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdlib>
#include <utility>

namespace mz {

inline constexpr std::size_t kBufferAlignment = 64;

// Cache-set coloring: successive large allocations are offset from their
// aligned base by increasing multiples of 8 KiB. Without this, a workload's
// operand arrays (often equal power-of-two sizes → identically aligned mmap
// regions) land on the *same* L1/L2 sets, and the cache-resident slices
// Mozart pipelines conflict-evict each other — set-associativity thrash that
// can triple runtimes. Production allocators (TBB's, jemalloc) stagger bases
// the same way.
inline constexpr std::size_t kColorStrideBytes = 8 * 1024;
inline constexpr std::size_t kNumColors = 16;

// Huge pages: an array of kHugePageMinBytes or more gets a base aligned to a
// 2 MiB page, and the whole 2 MiB pages inside its allocation are advised
// with madvise(MADV_HUGEPAGE), as NumPy does for arrays of 4 MiB or more.
// First touching a 32 MiB array then takes 16 page faults rather than 8192,
// and the TLB maps it with 2 MiB entries. The colour offset is kept:
// it stays inside the first huge page. The partial page at the end is never
// rounded up, so resident memory does not grow. Smaller arrays keep the
// 64-byte path; where madvise fails or transparent huge pages are set to
// "never", the array simply stays on 4 KiB pages.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
inline constexpr std::size_t kHugePageMinBytes = std::size_t{4} << 20;

namespace internal {

// One array's storage: `base` is what std::free takes, `data` is the
// colour-offset start of the array, and [base, base + huge_bytes) is the
// range advised onto huge pages (empty for arrays under kHugePageMinBytes).
struct ArrayAllocation {
  void* base = nullptr;
  char* data = nullptr;
  std::size_t huge_bytes = 0;
};

// Allocates room for `bytes` bytes of array at the next colour offset.
// Throws std::bad_alloc when memory runs out.
ArrayAllocation AllocateArray(std::size_t bytes);

}  // namespace internal

// Owning, aligned, fixed-size array of trivially-destructible T.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) { Allocate(count); }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : base_(std::exchange(other.base_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      base_ = std::exchange(other.base_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { Release(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  T* begin() { return data_; }
  T* end() { return data_ + count_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + count_; }

  void Fill(const T& value) {
    for (std::size_t i = 0; i < count_; ++i) {
      data_[i] = value;
    }
  }

 private:
  void Allocate(std::size_t count) {
    count_ = count;
    if (count == 0) {
      data_ = nullptr;
      return;
    }
    internal::ArrayAllocation a = internal::AllocateArray(count * sizeof(T));
    base_ = a.base;
    data_ = reinterpret_cast<T*>(a.data);
  }

  void Release() {
    std::free(base_);
    base_ = nullptr;
    data_ = nullptr;
    count_ = 0;
  }

  void* base_ = nullptr;  // allocation start (data_ is color-offset into it)
  T* data_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace mz

#endif  // MOZART_COMMON_ALIGNED_H_
