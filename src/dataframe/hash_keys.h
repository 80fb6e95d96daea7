// Group and join keys of the dataframe hash kernels, the hash that fixes
// their group order, and that order.
//
// GroupByAgg and ReAggregate emit groups in the order a
// std::unordered_map<Key, _, KeyHash> iterates them when each group is
// inserted at its first row. HashMapOrder computes that order from the
// keys' hash codes alone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string_view>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace df::internal {

// Folds a key's four member hashes into one hash code.
inline std::size_t FoldKeyHash(std::int64_t a, std::int64_t b, std::size_t hsa,
                               std::size_t hsb) {
  std::size_t h = std::hash<std::int64_t>()(a);
  h = h * 1315423911u ^ std::hash<std::int64_t>()(b);
  h = h * 1315423911u ^ hsa;
  h = h * 1315423911u ^ hsb;
  return h;
}

inline std::size_t EmptyStringHash() {
  static const std::size_t h = std::hash<std::string_view>()("");
  return h;
}

// Group keys as strings are hashed by value; numeric keys by bit pattern.
// String members view the key column's bytes, which outlive the key. A
// string_view hashes as the std::string with the same bytes.
struct GroupKey {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::string_view sa;
  std::string_view sb;

  bool operator==(const GroupKey&) const = default;
};

// The string-free key used when no key column is a string. It hashes exactly
// as the GroupKey with the same numbers and empty strings, so both key types
// give the same group order.
struct NumKey {
  std::int64_t a = 0;
  std::int64_t b = 0;

  bool operator==(const NumKey&) const = default;
};

struct KeyHash {
  std::size_t operator()(const GroupKey& k) const {
    return FoldKeyHash(k.a, k.b, std::hash<std::string_view>()(k.sa),
                       std::hash<std::string_view>()(k.sb));
  }
  std::size_t operator()(const NumKey& k) const {
    return FoldKeyHash(k.a, k.b, EmptyStringHash(), EmptyStringHash());
  }
};

// x % d by multiplications instead of a division, exact for every 64-bit x
// and d > 1 (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). HashMapOrder takes one remainder per key per rehash,
// and the division was about a fifth of its time.
class FastMod {
 public:
  explicit FastMod(std::uint64_t d) : d_(d), m_(~U128{0} / d + 1) {}

  std::uint64_t operator()(std::uint64_t x) const {
    const U128 low = m_ * x;
    const U128 bottom = (low & ~std::uint64_t{0}) * d_ >> 64;
    return static_cast<std::uint64_t>((bottom + (low >> 64) * d_) >> 64);
  }

 private:
  __extension__ using U128 = unsigned __int128;
  std::uint64_t d_;
  U128 m_;
};

// Indexes into `keys` (all distinct) in the order a
// std::unordered_map<Key, long, Hash> iterates them after inserting them in
// index order. That order depends only on the sequence of hash codes.
//
// Under libstdc++ this replays its _Hashtable on index arrays instead of
// building the map, with no allocation per key. The table threads all nodes
// on one list, a run per non-empty bucket. Inserting a key puts it at the
// front of its bucket's run, or, in an empty bucket, at the front of the
// list. A rehash (_M_rehash_aux for unique keys) walks the list and does the
// same with each node under the new bucket count, so it rebuilds the runs
// newest bucket first, each run in reverse walk order.
//
// Read backwards, the list is therefore one stable grouping: between two
// rehashes it holds the nodes of the sequence "the list before the rehash,
// backwards, then the keys inserted since", grouped by bucket, the buckets
// in order of first appearance and each bucket's nodes in sequence order.
// The replay regroups that sequence once per rehash by a counting sort, and
// calls _Prime_rehash_policy::_M_need_rehash as the table does to find
// where each rehash falls and its bucket count.
template <typename Key, typename Hash = KeyHash>
std::vector<long> HashMapOrder(const std::vector<Key>& keys) {
#ifdef __GLIBCXX__
  const std::size_t n = keys.size();
  MZ_CHECK_MSG(n < INT32_MAX, "too many keys");
  std::vector<std::size_t> codes(n);
  for (std::size_t g = 0; g < n; ++g) {
    codes[g] = Hash()(keys[g]);
  }
  // backwards: the table's list read backwards; seq: the sequence being
  // grouped; rank: each element's bucket in order of first appearance;
  // start: each rank's next position in `backwards`.
  std::vector<std::int32_t> backwards(n);
  std::vector<std::int32_t> seq(n);
  std::vector<std::int32_t> rank(n);
  std::vector<std::int32_t> start(n + 1);
  std::vector<std::int32_t> bucket_rank;
  // A new table has one bucket, and its first insert rehashes.
  std::__detail::_Prime_rehash_policy policy;
  std::size_t buckets = n > 0 ? policy._M_need_rehash(1, 0, 1).second : 1;
  for (std::size_t size = 0; size < n;) {
    // Keys [size, end) go in at `buckets` buckets; inserting key `end`
    // rehashes to `next`. As in the table, the policy is asked only when an
    // insert would pass _M_next_resize.
    std::size_t end = size + 1;
    std::size_t next = buckets;
    while (end < n) {
      if (end + 1 <= policy._M_next_resize) {
        end = std::min(n, policy._M_next_resize);
        continue;
      }
      const auto [rehash, count] = policy._M_need_rehash(buckets, end, 1);
      if (rehash) {
        next = count;
        break;
      }
    }
    std::reverse_copy(backwards.begin(), backwards.begin() + static_cast<long>(size), seq.begin());
    std::iota(seq.begin() + static_cast<long>(size), seq.begin() + static_cast<long>(end),
              static_cast<std::int32_t>(size));
    bucket_rank.assign(buckets, -1);
    const FastMod bucket_of(buckets);
    std::fill(start.begin(), start.begin() + static_cast<long>(end) + 1, 0);
    std::int32_t ranks = 0;
    for (std::size_t i = 0; i < end; ++i) {
      const std::size_t b = bucket_of(codes[static_cast<std::size_t>(seq[i])]);
      // Branch-free: buckets come in no pattern.
      std::int32_t r = bucket_rank[b];
      const bool first = r < 0;
      r = first ? ranks : r;
      ranks += first;
      bucket_rank[b] = r;
      rank[i] = r;
      ++start[static_cast<std::size_t>(r) + 1];
    }
    std::partial_sum(start.begin(), start.begin() + ranks + 1, start.begin());
    for (std::size_t i = 0; i < end; ++i) {
      backwards[static_cast<std::size_t>(start[static_cast<std::size_t>(rank[i])]++)] = seq[i];
    }
    size = end;
    buckets = next;
  }
  return std::vector<long>(backwards.rbegin(), backwards.rend());
#else
  std::unordered_map<Key, long, Hash> map;
  for (std::size_t g = 0; g < keys.size(); ++g) {
    map.emplace(keys[g], static_cast<long>(g));
  }
  std::vector<long> order;
  order.reserve(keys.size());
  for (const auto& [key, g] : map) {
    order.push_back(g);
  }
  return order;
#endif
}

}  // namespace df::internal
