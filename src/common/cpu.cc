#include "common/cpu.h"

#include <unistd.h>

#include <fstream>
#include <string>
#include <thread>

#include "common/simd.h"

namespace mz {
namespace {

// Parses sysfs cache size strings such as "256K" or "8192K" or "1M".
std::size_t ParseCacheSize(const std::string& text) {
  if (text.empty()) {
    return 0;
  }
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K' || text[i] == 'k') {
      value *= 1024;
    } else if (text[i] == 'M' || text[i] == 'm') {
      value *= 1024 * 1024;
    }
  }
  return value;
}

// Reads /sys/devices/system/cpu/cpu0/cache/index*/ looking for the requested
// level; returns 0 when not found.
std::size_t SysfsCacheBytes(int want_level) {
  for (int index = 0; index < 8; ++index) {
    std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(base + "level");
    if (!level_file.good()) {
      continue;
    }
    int level = 0;
    level_file >> level;
    if (level != want_level) {
      continue;
    }
    // Skip pure-instruction caches.
    std::ifstream type_file(base + "type");
    std::string type;
    type_file >> type;
    if (type == "Instruction") {
      continue;
    }
    std::ifstream size_file(base + "size");
    std::string size_text;
    size_file >> size_text;
    std::size_t bytes = ParseCacheSize(size_text);
    if (bytes > 0) {
      return bytes;
    }
  }
  return 0;
}

}  // namespace

int NumLogicalCpus() {
  // Cached: this sits on the hot path of every library-internal parallel
  // dispatch, and hardware_concurrency() costs a syscall on glibc.
  static const int cached = [] {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) {
      long n = ::sysconf(_SC_NPROCESSORS_ONLN);
      hw = n > 0 ? static_cast<unsigned>(n) : 1u;
    }
    return static_cast<int>(hw);
  }();
  return cached;
}

std::size_t L2CacheBytes() {
  static const std::size_t cached = [] {
    std::size_t bytes = SysfsCacheBytes(2);
#ifdef _SC_LEVEL2_CACHE_SIZE
    if (bytes == 0) {
      long v = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
      if (v > 0) {
        bytes = static_cast<std::size_t>(v);
      }
    }
#endif
    if (bytes == 0) {
      bytes = 256 * 1024;
    }
    return bytes;
  }();
  return cached;
}

std::size_t LlcBytes() {
  static const std::size_t cached = [] {
    std::size_t bytes = SysfsCacheBytes(3);
#ifdef _SC_LEVEL3_CACHE_SIZE
    if (bytes == 0) {
      long v = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
      if (v > 0) {
        bytes = static_cast<std::size_t>(v);
      }
    }
#endif
    if (bytes == 0) {
      bytes = 8 * 1024 * 1024;
    }
    return bytes;
  }();
  return cached;
}

std::size_t CacheLineBytes() {
  static const std::size_t cached = [] {
    std::size_t bytes = 0;
#ifdef _SC_LEVEL1_DCACHE_LINESIZE
    long v = ::sysconf(_SC_LEVEL1_DCACHE_LINESIZE);
    if (v > 0) {
      bytes = static_cast<std::size_t>(v);
    }
#endif
    if (bytes == 0) {
      bytes = 64;
    }
    return bytes;
  }();
  return cached;
}

bool CpuHasAvx512F() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace mz
