// The dataframe hash kernels against references that share none of their
// code.
//
// HashMapOrder (dataframe/hash_keys.h) against a real std::unordered_map:
// random keys and forced hash-code sequences (equal codes, codes that share
// a bucket at every bucket count the table passes through) of 0-70k keys,
// for NumKey and GroupKey. HashJoin against a nested-loop join: duplicate
// and missing keys, int, double and string keys, empty and sliced sides.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dataframe/hash_keys.h"
#include "dataframe/ops.h"

namespace {

using df::Column;
using df::DataFrame;
using df::internal::GroupKey;
using df::internal::KeyHash;
using df::internal::NumKey;

template <typename Key>
std::vector<long> MapOrder(const std::vector<Key>& keys) {
  std::unordered_map<Key, long, KeyHash> map;
  for (std::size_t g = 0; g < keys.size(); ++g) {
    map.emplace(keys[g], static_cast<long>(g));
  }
  std::vector<long> order;
  for (const auto& [key, g] : map) {
    order.push_back(g);
  }
  return order;
}

template <typename Key>
void ExpectMapOrder(const std::vector<Key>& keys, const std::string& what) {
  ASSERT_EQ(df::internal::HashMapOrder(keys), MapOrder(keys)) << what << ", " << keys.size()
                                                              << " keys";
}

// FoldKeyHash multiplies by this odd constant three times; its inverse
// modulo 2^64 lets a key be solved for any hash code.
constexpr std::uint64_t kFold = 1315423911u;
constexpr std::uint64_t Inverse(std::uint64_t m) {
  std::uint64_t x = m;  // Newton's iteration: each step doubles the correct bits
  for (int i = 0; i < 6; ++i) {
    x *= 2 - m * x;
  }
  return x;
}
constexpr std::uint64_t kFoldInv = Inverse(kFold);
static_assert(kFold * kFoldInv == 1);

// The `b` that gives a key with members a, hsa, hsb the hash code `code`.
std::int64_t SolveB(std::int64_t a, std::size_t hsa, std::size_t hsb, std::size_t code) {
  const std::uint64_t x = (((code ^ hsb) * kFoldInv) ^ hsa) * kFoldInv;
  return static_cast<std::int64_t>(x ^ (static_cast<std::uint64_t>(a) * kFold));
}

// Distinct NumKeys (a = index) with the given hash codes.
std::vector<NumKey> NumKeysWithCodes(const std::vector<std::size_t>& codes) {
  const std::size_t e = df::internal::EmptyStringHash();
  std::vector<NumKey> keys;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const auto a = static_cast<std::int64_t>(i);
    keys.push_back({a, SolveB(a, e, e, codes[i])});
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(KeyHash()(keys[i]), codes[i]);
  }
  return keys;
}

// Distinct GroupKeys with the given hash codes; their string members vary,
// so equal codes come from keys that differ in every member.
std::vector<GroupKey> GroupKeysWithCodes(const std::vector<std::size_t>& codes,
                                         std::deque<std::string>& strings) {
  std::vector<GroupKey> keys;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::string_view sa = strings.emplace_back("a" + std::to_string(i % 97));
    const std::string_view sb = strings.emplace_back(std::to_string(i));
    const auto a = static_cast<std::int64_t>(i % 5);
    const std::size_t hsa = std::hash<std::string_view>()(sa);
    const std::size_t hsb = std::hash<std::string_view>()(sb);
    keys.push_back({a, SolveB(a, hsa, hsb, codes[i]), sa, sb});
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(KeyHash()(keys[i]), codes[i]);
  }
  return keys;
}

// Key counts: around the first rehash points, then random up to 70k.
std::vector<std::size_t> Sizes(mz::Rng& rng) {
  std::vector<std::size_t> sizes = {0, 1, 2, 11, 12, 13, 14, 29, 30, 140};
  sizes.push_back(rng.NextBounded(2000));
  sizes.push_back(rng.NextBounded(70'001));
  return sizes;
}

TEST(HashMapOrder, RandomNumKeysMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    mz::Rng rng(seed);
    for (std::size_t n : Sizes(rng)) {
      std::unordered_map<NumKey, int, KeyHash> seen;
      std::vector<NumKey> keys;
      const auto span = static_cast<std::int64_t>(2 * n);
      while (keys.size() < n) {
        // Small dense values with a 0/1 second member, as a year/gender
        // group-by sees them, or full-range values.
        NumKey k = seed % 2 == 0 ? NumKey{1900 + rng.NextInt(0, span), rng.NextInt(0, 1)}
                                 : NumKey{static_cast<std::int64_t>(rng.NextU64()),
                                          static_cast<std::int64_t>(rng.NextU64())};
        if (seen.emplace(k, 0).second) {
          keys.push_back(k);
        }
      }
      ExpectMapOrder(keys, "seed " + std::to_string(seed));
    }
  }
}

TEST(HashMapOrder, RandomGroupKeysMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    mz::Rng rng(seed);
    for (std::size_t n : Sizes(rng)) {
      std::deque<std::string> strings;
      std::vector<GroupKey> keys;
      for (std::size_t i = 0; i < n; ++i) {
        // Index i in the string keeps keys distinct.
        std::string s = std::to_string(rng.NextU64() % 1000) + "/" + std::to_string(i);
        keys.push_back({static_cast<std::int64_t>(rng.NextBounded(3)), 0,
                        strings.emplace_back(std::move(s)), i % 2 == 0 ? "" : "x"});
      }
      ExpectMapOrder(keys, "seed " + std::to_string(seed));
    }
  }
}

TEST(HashMapOrder, ForcedCodeSequencesMatchUnorderedMap) {
  // Every bucket count a growing table takes up to 70k keys is a prime from
  // this list, so codes that are multiples of their product collide at each.
  const std::size_t kBuckets[] = {13,   29,   59,    127,   257,   541,   1109, 2357,
                                  5087, 10273, 20753, 42043, 85229};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    mz::Rng rng(seed);
    for (std::size_t n : Sizes(rng)) {
      // A std::unordered_map takes quadratic time over equal codes, so the
      // sequences with few distinct codes are shorter.
      std::vector<std::vector<std::size_t>> sequences(4);
      const std::size_t m = kBuckets[seed % 13];
      for (std::size_t i = 0; i < n; ++i) {
        if (i < 1000) {
          sequences[0].push_back(0x5bd1e995u);  // all codes equal
        }
        if (i < 3000) {
          sequences[1].push_back(rng.NextBounded(8) * 7);  // few distinct codes
        }
        if (i < 10'000) {
          sequences[2].push_back(rng.NextBounded(64) * m);  // one bucket at count m
        }
        sequences[3].push_back(rng.NextBounded(4) == 0 ? rng.NextU64()
                                                       : rng.NextBounded(5000));  // low codes
      }
      for (std::size_t s = 0; s < sequences.size(); ++s) {
        const std::string what = "seed " + std::to_string(seed) + ", sequence " + std::to_string(s);
        ExpectMapOrder(NumKeysWithCodes(sequences[s]), what);
        std::deque<std::string> strings;
        ExpectMapOrder(GroupKeysWithCodes(sequences[s], strings), what);
      }
    }
  }
  // Codes that share a bucket at every count up to 541.
  std::vector<std::size_t> codes;
  for (std::size_t i = 0; i < 600; ++i) {
    codes.push_back((i % 3) * 13 * 29 * 59 * 127 * 257 * 541);
  }
  ExpectMapOrder(NumKeysWithCodes(codes), "shared buckets");
}

// ---------------------------------------------------------------- HashJoin --

// A key as the join compares it: numbers by their int64 image (doubles at
// 1e-6 resolution, NaN and out-of-range values to INT64_MIN), strings by
// bytes.
struct RefKey {
  std::int64_t n = 0;
  std::string s;
  bool operator==(const RefKey&) const = default;
};

RefKey RefKeyAt(const Column& c, long row) {
  switch (c.type()) {
    case df::ColType::kInt64:
      return {c.i64(row), {}};
    case df::ColType::kDouble: {
      const double scaled = c.d(row) * 1e6;
      if (scaled >= -0x1p63 && scaled < 0x1p63) {
        return {static_cast<std::int64_t>(scaled), {}};
      }
      return {std::numeric_limits<std::int64_t>::min(), {}};
    }
    case df::ColType::kString:
      return {0, std::string(c.str(row))};
  }
  return {};
}

// The nested-loop join: for each left row in order, every matching right
// row in order; left columns, then right columns but the key, a name the
// left side has suffixed with "_right".
DataFrame NestedLoopJoin(const DataFrame& left, const DataFrame& right, int lk, int rk) {
  std::vector<long> lrows;
  std::vector<long> rrows;
  for (long l = 0; l < left.num_rows(); ++l) {
    const RefKey key = RefKeyAt(left.col(lk), l);
    for (long r = 0; r < right.num_rows(); ++r) {
      if (RefKeyAt(right.col(rk), r) == key) {
        lrows.push_back(l);
        rrows.push_back(r);
      }
    }
  }
  std::vector<std::string> names = left.names();
  std::vector<Column> cols;
  for (int c = 0; c < left.num_cols(); ++c) {
    cols.push_back(left.col(c).Take(lrows));
  }
  for (int c = 0; c < right.num_cols(); ++c) {
    if (c == rk) {
      continue;
    }
    std::string name = right.names()[static_cast<std::size_t>(c)];
    names.push_back(left.col_index(name) >= 0 ? name + "_right" : name);
    cols.push_back(right.col(c).Take(rrows));
  }
  return DataFrame::Make(std::move(names), std::move(cols));
}

void ExpectSameFrame(const DataFrame& got, const DataFrame& want, const std::string& what) {
  ASSERT_EQ(got.names(), want.names()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (int c = 0; c < want.num_cols(); ++c) {
    const Column& g = got.col(c);
    const Column& w = want.col(c);
    ASSERT_EQ(g.type(), w.type()) << what << ", column " << c;
    for (long r = 0; r < w.size(); ++r) {
      switch (w.type()) {
        case df::ColType::kInt64:
          ASSERT_EQ(g.i64(r), w.i64(r)) << what << ", column " << c << ", row " << r;
          break;
        case df::ColType::kDouble:
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g.d(r)), std::bit_cast<std::uint64_t>(w.d(r)))
              << what << ", column " << c << ", row " << r;
          break;
        case df::ColType::kString:
          ASSERT_EQ(g.str(r), w.str(r)) << what << ", column " << c << ", row " << r;
          break;
      }
    }
  }
}

// A key column of `n` rows drawn from `domain` values of one type.
Column RandomKeys(mz::Rng& rng, df::ColType type, long n, long domain) {
  const std::string strings[] = {"",         "a", "ab", std::string("a\0b", 3), "\xc3\xa9",
                                 "a long key past 16 bytes"};
  std::vector<std::int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strs;
  for (long i = 0; i < n; ++i) {
    const auto k = static_cast<std::int64_t>(rng.NextBounded(static_cast<std::uint64_t>(domain)));
    switch (type) {
      case df::ColType::kInt64:
        ints.push_back(k);
        break;
      case df::ColType::kDouble: {
        // NaN and +-1e300 share the INT64_MIN image; 1e-7 steps fall
        // below the 1e-6 resolution.
        const double special[] = {std::nan(""), 1e300, -1e300, 0.0, -0.0, 1e-7};
        doubles.push_back(k % 7 == 0 ? special[k % 6] : 0.5 * static_cast<double>(k));
        break;
      }
      case df::ColType::kString:
        strs.push_back(strings[k % 6] + std::to_string(k / 6));
        break;
    }
  }
  switch (type) {
    case df::ColType::kInt64:
      return Column::Ints(std::move(ints));
    case df::ColType::kDouble:
      return Column::Doubles(std::move(doubles));
    case df::ColType::kString:
      break;
  }
  return Column::Strings(std::move(strs));
}

DataFrame RandomSide(mz::Rng& rng, df::ColType type, long n, long domain, bool left) {
  std::vector<std::int64_t> tag;
  std::vector<double> v;
  std::vector<std::string> s;
  for (long i = 0; i < n; ++i) {
    tag.push_back(i);
    v.push_back(static_cast<double>(rng.NextBounded(1000)) / 8);
    s.push_back("row" + std::to_string(i));
  }
  // The left side draws from a third more values, so some of its keys miss.
  Column keys = RandomKeys(rng, type, n, left ? domain + domain / 3 + 1 : domain);
  if (left) {
    return DataFrame::Make({"k", "v", "s"}, {std::move(keys), Column::Doubles(std::move(v)),
                                            Column::Strings(std::move(s))});
  }
  return DataFrame::Make({"tag", "k", "v"}, {Column::Ints(std::move(tag)), std::move(keys),
                                            Column::Doubles(std::move(v))});
}

TEST(HashJoin, MatchesNestedLoopJoin) {
  const df::ColType kTypes[] = {df::ColType::kInt64, df::ColType::kDouble, df::ColType::kString};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    mz::Rng rng(seed);
    for (df::ColType type : kTypes) {
      const long domain = 1 + static_cast<long>(rng.NextBounded(120));
      const long nl = static_cast<long>(rng.NextBounded(400));
      const long nr = static_cast<long>(rng.NextBounded(300));
      const DataFrame left = RandomSide(rng, type, nl, domain, true);
      const DataFrame right = RandomSide(rng, type, nr, domain, false);
      const std::string what = "seed " + std::to_string(seed) + ", type " +
                               std::to_string(static_cast<int>(type));
      ExpectSameFrame(df::HashJoin(left, right, 0, 1), NestedLoopJoin(left, right, 0, 1), what);
      // Sliced sides: non-zero offsets, and empty slices of either side.
      const DataFrame ls = left.Slice(nl / 3, nl - nl / 5);
      const DataFrame rs = right.Slice(nr / 4, nr - nr / 7);
      ExpectSameFrame(df::HashJoin(ls, rs, 0, 1), NestedLoopJoin(ls, rs, 0, 1), what + " sliced");
      const DataFrame empty_l = left.Slice(nl / 2, nl / 2);
      const DataFrame empty_r = right.Slice(nr / 2, nr / 2);
      ExpectSameFrame(df::HashJoin(empty_l, right, 0, 1), NestedLoopJoin(empty_l, right, 0, 1),
                      what + " empty left");
      ExpectSameFrame(df::HashJoin(left, empty_r, 0, 1), NestedLoopJoin(left, empty_r, 0, 1),
                      what + " empty right");
    }
  }
}

TEST(HashJoin, IntKeysMeetDoubleKeysAtTheirImage) {
  // An int column's key is its value; a double column's is value * 1e6.
  mz::Rng rng(7);
  const DataFrame left = RandomSide(rng, df::ColType::kInt64, 200, 40, true);
  const DataFrame right = DataFrame::Make(
      {"tag", "k"}, {Column::Ints({1, 2, 3, 4}), Column::Doubles({5e-6, 5.0, 1e-5, 5e-6})});
  ExpectSameFrame(df::HashJoin(left, right, 0, 1), NestedLoopJoin(left, right, 0, 1), "mixed");
  EXPECT_GT(df::HashJoin(left, right, 0, 1).num_rows(), 0);
}

}  // namespace
