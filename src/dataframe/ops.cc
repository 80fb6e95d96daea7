#include "dataframe/ops.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <type_traits>

#include "common/check.h"
#include "dataframe/hash_keys.h"

namespace df {
namespace {

template <typename F>
Column MapDouble(const Column& a, F f) {
  auto in = a.doubles();
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = f(in[i]);
  }
  return Column::Doubles(std::move(out));
}

template <typename F>
Column ZipDouble(const Column& a, const Column& b, F f) {
  auto xa = a.doubles();
  auto xb = b.doubles();
  MZ_CHECK_MSG(xa.size() == xb.size(), "series length mismatch");
  std::vector<double> out(xa.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    out[i] = f(xa[i], xb[i]);
  }
  return Column::Doubles(std::move(out));
}

template <typename F>
Column MaskFromDouble(const Column& a, F pred) {
  auto in = a.doubles();
  std::vector<std::int64_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = pred(in[i]) ? 1 : 0;
  }
  return Column::Ints(std::move(out));
}

// f maps each row to a string_view that stays valid until the next call.
template <typename F>
Column MapString(const Column& a, F f) {
  auto o = a.string_offsets();
  const StringRows in(a);
  StringColumnBuilder out;
  out.Reserve(a.size(), static_cast<long>(o.back() - o.front()));
  for (long i = 0; i < a.size(); ++i) {
    out.Append(f(in[i]));
  }
  return out.Finish();
}

template <typename F>
Column MaskFromString(const Column& a, F pred) {
  const StringRows in(a);
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = pred(in[static_cast<long>(i)]) ? 1 : 0;
  }
  return Column::Ints(std::move(out));
}

std::uint64_t Load8(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Selects a loaded word's first `width` bytes in memory order.
constexpr std::uint64_t FirstBytesMask(int width) {
  if (width >= 8) {
    return ~std::uint64_t{0};
  }
  return std::endian::native == std::endian::little
             ? (std::uint64_t{1} << (8 * width)) - 1
             : ~std::uint64_t{0} << (64 - 8 * width);
}

// A pattern of at most 8 bytes as a word, zero past its end; a masked Load8
// of matching bytes compares equal to it.
std::uint64_t PatternWord(const std::string& pattern) {
  char buf[8] = {};
  std::memcpy(buf, pattern.data(), std::min<std::size_t>(pattern.size(), 8));
  return Load8(buf);
}

// std::stod's value without its exceptions: strtod over a NUL-terminated
// copy, and NaN wherever stod would throw (nothing converted, or errno set
// to ERANGE, underflow included) or stop before the end.
double ParseDouble(std::string_view s, std::string& scratch) {
  char small[64];
  const char* z = small;
  if (s.size() < sizeof(small)) {
    std::memcpy(small, s.data(), s.size());
    small[s.size()] = '\0';
  } else {
    scratch.assign(s);
    z = scratch.c_str();
  }
  const int saved_errno = errno;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(z, &end);
  const bool ok = end != z && errno != ERANGE && end == z + s.size();
  errno = saved_errno;
  return ok ? v : std::nan("");
}

using internal::GroupKey;
using internal::HashMapOrder;
using internal::KeyHash;
using internal::NumKey;

// Double keys group at 1e-6 resolution. NaN and values whose scaled image
// lies outside int64 (where the cast is undefined) all map to INT64_MIN, the
// value x86's truncating conversion gives them.
std::int64_t DoubleKey(double x) {
  double scaled = x * 1e6;
  if (scaled >= -0x1p63 && scaled < 0x1p63) {
    return static_cast<std::int64_t>(scaled);
  }
  return std::numeric_limits<std::int64_t>::min();
}

GroupKey KeyAt(const Column& c0, const Column* c1, long row) {
  GroupKey k;
  if (c0.is_string()) {
    k.sa = c0.str(row);
  } else if (c0.is_int()) {
    k.a = c0.i64(row);
  } else {
    k.a = DoubleKey(c0.d(row));
  }
  if (c1 != nullptr) {
    if (c1->is_string()) {
      k.sb = c1->str(row);
    } else if (c1->is_int()) {
      k.b = c1->i64(row);
    } else {
      k.b = DoubleKey(c1->d(row));
    }
  }
  return k;
}

// Reads the numeric key of an int64 or double column (0 for an absent one).
class NumKeyReader {
 public:
  explicit NumKeyReader(const Column* c) {
    if (c != nullptr && c->is_int()) {
      ints_ = c->ints().data();
    } else if (c != nullptr) {
      doubles_ = c->doubles().data();
    }
  }

  std::int64_t operator()(long row) const {
    if (ints_ != nullptr) {
      return ints_[row];
    }
    return doubles_ != nullptr ? DoubleKey(doubles_[row]) : 0;
  }

 private:
  const std::int64_t* ints_ = nullptr;
  const double* doubles_ = nullptr;
};

// Calls body(key_at) with a row → key function over one or two key columns:
// NumKey when neither is a string column, GroupKey otherwise.
template <typename Body>
auto WithKeys(const Column& c0, const Column* c1, Body body) {
  if (c0.is_string() || (c1 != nullptr && c1->is_string())) {
    return body([&c0, c1](long row) { return KeyAt(c0, c1, row); });
  }
  NumKeyReader r0(&c0);
  NumKeyReader r1(c1);
  return body([r0, r1](long row) { return NumKey{r0(row), r1(row)}; });
}

// The flat table's hash, whose top bits pick a key's slot (Fibonacci
// hashing). A numeric key is a times 2^64/phi plus b times a second odd
// constant, so runs of consecutive ids (years, user and movie ids) spread
// evenly over the table; a string key is its KeyHash times 2^64/phi.
inline std::uint64_t FlatHash(const NumKey& k) {
  return static_cast<std::uint64_t>(k.a) * 0x9E3779B97F4A7C15ull +
         static_cast<std::uint64_t>(k.b) * 0xC2B2AE3D27D4EB4Full;
}
inline std::uint64_t FlatHash(const GroupKey& k) { return KeyHash()(k) * 0x9E3779B97F4A7C15ull; }

// Groups keys in first-occurrence order through an open-addressing table
// with linear probing, kept at most a quarter full. A slot holds the top 32
// bits of its key's FlatHash and its group index + 1 (0 when empty), so a
// probe reads a key only on a 32-bit hash match and growth rehashes from
// the slots alone.
template <typename Key>
class FlatGroups {
 public:
  // A table with room for `groups` groups before it first grows.
  explicit FlatGroups(long groups) {
    Resize(std::max<std::size_t>(16, std::bit_ceil(4 * static_cast<std::size_t>(groups))));
    keys_.reserve(static_cast<std::size_t>(groups));
  }

  // The group index of `key` and whether this call added the group.
  std::pair<long, bool> Insert(const Key& key) {
    if (4 * (keys_.size() + 1) > slots_.size()) {
      Grow();
    }
    const std::uint64_t m = FlatHash(key);
    for (std::size_t i = m >> shift_;; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.group == 0) {
        MZ_CHECK_MSG(keys_.size() < UINT32_MAX - 1, "too many groups");
        keys_.push_back(key);
        slot = {static_cast<std::uint32_t>(m >> 32), static_cast<std::uint32_t>(keys_.size())};
        return {static_cast<long>(keys_.size()) - 1, true};
      }
      if (slot.tag == m >> 32 && keys_[slot.group - 1] == key) {
        return {static_cast<long>(slot.group) - 1, false};
      }
    }
  }

  // The group index of `key`, or -1 when no row had it.
  long Find(const Key& key) const {
    const std::uint64_t m = FlatHash(key);
    for (std::size_t i = m >> shift_;; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.group == 0) {
        return -1;
      }
      if (slot.tag == m >> 32 && keys_[slot.group - 1] == key) {
        return static_cast<long>(slot.group) - 1;
      }
    }
  }

  // The keys by group index.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t group = 0;  // group index + 1; 0 when empty
  };

  void Resize(std::size_t size) {
    MZ_CHECK_MSG(size <= (std::size_t{1} << 32), "group table too large");
    shift_ = 64 - std::countr_zero(size);
    slots_.assign(size, Slot{});
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    Resize(2 * old.size());
    for (const Slot& slot : old) {
      if (slot.group == 0) {
        continue;
      }
      std::size_t i = (static_cast<std::uint64_t>(slot.tag) << 32) >> shift_;
      while (slots_[i].group != 0) {
        i = (i + 1) & (slots_.size() - 1);
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<Key> keys_;
  int shift_ = 64;
};

// A group-by's table and per-group vectors start with room for this many
// groups, or for one per row when there are fewer rows: group-bys of up to
// a few hundred groups (years, genders, categories) never grow, and their
// 8 KiB table stays in L1.
constexpr long kGroupsSizedUpFront = 256;

long GroupsUpFront(long rows) { return std::min(rows, kGroupsSizedUpFront); }

// A group-by's output rows: each group's first row and its `aggs.size()`
// aggregates (group g's at [g * width, (g + 1) * width) in `group_aggs`),
// in the order HashMapOrder gives the groups' keys.
template <typename Key>
void InMapOrder(const std::vector<Key>& keys, const std::vector<long>& group_first_rows,
                const std::vector<double>& group_aggs, std::vector<long>& first_rows,
                std::vector<std::vector<double>>& aggs) {
  const std::vector<long> order = HashMapOrder(keys);
  const std::size_t width = aggs.size();
  first_rows.resize(order.size());
  for (std::vector<double>& col : aggs) {
    col.resize(order.size());
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto g = static_cast<std::size_t>(order[i]);
    first_rows[i] = group_first_rows[g];
    for (std::size_t v = 0; v < width; ++v) {
      aggs[v][i] = group_aggs[g * width + v];
    }
  }
}

// Reads a numeric aggregation value column as doubles.
class ValueReader {
 public:
  explicit ValueReader(const Column& c) {
    if (c.is_double()) {
      doubles_ = c.doubles().data();
    } else if (c.is_int()) {
      ints_ = c.ints().data();
    } else {
      MZ_CHECK_MSG(c.empty(), "aggregation value column must be numeric");
    }
  }

  double operator()(long row) const {
    return doubles_ != nullptr ? doubles_[row] : static_cast<double>(ints_[row]);
  }

 private:
  const double* doubles_ = nullptr;
  const std::int64_t* ints_ = nullptr;
};

// Takes every column of `frame` at `rows`.
std::vector<Column> TakeColumns(const DataFrame& frame, std::span<const long> rows) {
  std::vector<Column> cols;
  cols.reserve(static_cast<std::size_t>(frame.num_cols()));
  for (int c = 0; c < frame.num_cols(); ++c) {
    cols.push_back(frame.col(c).Take(rows));
  }
  return cols;
}

}  // namespace

Column ColAdd(const Column& a, const Column& b) {
  return ZipDouble(a, b, [](double x, double y) { return x + y; });
}
Column ColSub(const Column& a, const Column& b) {
  return ZipDouble(a, b, [](double x, double y) { return x - y; });
}
Column ColMul(const Column& a, const Column& b) {
  return ZipDouble(a, b, [](double x, double y) { return x * y; });
}
Column ColDiv(const Column& a, const Column& b) {
  return ZipDouble(a, b, [](double x, double y) { return x / y; });
}
Column ColAddC(const Column& a, double c) {
  return MapDouble(a, [c](double x) { return x + c; });
}
Column ColMulC(const Column& a, double c) {
  return MapDouble(a, [c](double x) { return x * c; });
}
Column ColDivC(const Column& a, double c) {
  return MapDouble(a, [c](double x) { return x / c; });
}

Column ColGtC(const Column& a, double c) {
  return MaskFromDouble(a, [c](double x) { return x > c; });
}
Column ColLtC(const Column& a, double c) {
  return MaskFromDouble(a, [c](double x) { return x < c; });
}
Column ColGeC(const Column& a, double c) {
  return MaskFromDouble(a, [c](double x) { return x >= c; });
}
Column ColEqC(const Column& a, double c) {
  return MaskFromDouble(a, [c](double x) { return x == c; });
}

Column MaskAnd(const Column& a, const Column& b) {
  auto xa = a.ints();
  auto xb = b.ints();
  MZ_CHECK_MSG(xa.size() == xb.size(), "mask length mismatch");
  std::vector<std::int64_t> out(xa.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    out[i] = static_cast<std::int64_t>(xa[i] != 0) & static_cast<std::int64_t>(xb[i] != 0);
  }
  return Column::Ints(std::move(out));
}

Column MaskOr(const Column& a, const Column& b) {
  auto xa = a.ints();
  auto xb = b.ints();
  MZ_CHECK_MSG(xa.size() == xb.size(), "mask length mismatch");
  std::vector<std::int64_t> out(xa.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    out[i] = static_cast<std::int64_t>(xa[i] != 0) | static_cast<std::int64_t>(xb[i] != 0);
  }
  return Column::Ints(std::move(out));
}

Column MaskNot(const Column& a) {
  auto xa = a.ints();
  std::vector<std::int64_t> out(xa.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    out[i] = xa[i] != 0 ? 0 : 1;
  }
  return Column::Ints(std::move(out));
}

Column ColIsNaN(const Column& a) {
  return MaskFromDouble(a, [](double x) { return std::isnan(x); });
}

Column ColFillNaN(const Column& a, double value) {
  return MapDouble(a, [value](double x) { return std::isnan(x) ? value : x; });
}

Column ColWhere(const Column& mask, const Column& a, double otherwise) {
  auto m = mask.ints();
  auto in = a.doubles();
  MZ_CHECK_MSG(m.size() == in.size(), "mask length mismatch");
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    // Branchless bit select: masks are often random, so a branch mispredicts.
    std::uint64_t keep = 0 - static_cast<std::uint64_t>(m[i] != 0);
    out[i] = std::bit_cast<double>((std::bit_cast<std::uint64_t>(in[i]) & keep) |
                                   (std::bit_cast<std::uint64_t>(otherwise) & ~keep));
  }
  return Column::Doubles(std::move(out));
}

// Prefixes of 1-8 bytes compare one masked 8-byte load per row; the byte
// buffer's padding keeps every load inside it.
Column StrStartsWith(const Column& a, const std::string& prefix) {
  if (prefix.empty() || prefix.size() > 8) {
    return MaskFromString(a, [&](std::string_view s) { return s.starts_with(prefix); });
  }
  const std::size_t width = prefix.size();
  const std::uint64_t mask = FirstBytesMask(static_cast<int>(width));
  const std::uint64_t pat = PatternWord(prefix);
  return MaskFromString(a, [=](std::string_view s) {
    return (s.size() >= width) & ((Load8(s.data()) & mask) == pat);
  });
}

Column StrContains(const Column& a, const std::string& needle) {
  return MaskFromString(a, [&](std::string_view s) { return s.find(needle) != s.npos; });
}

Column StrSlice(const Column& a, long start, long len) {
  return MapString(a, [start, len](std::string_view s) {
    if (static_cast<std::size_t>(start) >= s.size()) {
      return std::string_view();
    }
    return s.substr(static_cast<std::size_t>(start), static_cast<std::size_t>(len));
  });
}

Column StrRemoveChar(const Column& a, char ch) {
  std::string scratch;
  return MapString(a, [ch, &scratch](std::string_view s) {
    if (s.find(ch) == s.npos) {
      return s;
    }
    if (scratch.size() < s.size()) {
      scratch.resize(s.size());
    }
    // Branchless: every byte is written, only kept bytes advance.
    std::size_t n = 0;
    for (char c : s) {
      scratch[n] = c;
      n += c != ch ? 1 : 0;
    }
    return std::string_view(scratch.data(), n);
  });
}

Column StrIsNumeric(const Column& a) {
  return MaskFromString(a, [](std::string_view s) {
    if (s.empty()) {
      return false;
    }
    return std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
  });
}

Column StrLen(const Column& a) {
  auto o = a.string_offsets();
  std::vector<std::int64_t> out(static_cast<std::size_t>(a.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = o[i + 1] - o[i];
  }
  return Column::Ints(std::move(out));
}

Column StrWhere(const Column& mask, const Column& a, const std::string& otherwise) {
  auto m = mask.ints();
  auto o = a.string_offsets();
  const StringRows in(a);
  MZ_CHECK_MSG(static_cast<long>(m.size()) == a.size(), "mask length mismatch");
  StringColumnBuilder out;
  out.Reserve(a.size(), static_cast<long>(o.back() - o.front()));
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.Append(m[i] != 0 ? in[static_cast<long>(i)] : std::string_view(otherwise));
  }
  return out.Finish();
}

Column StrToDouble(const Column& a) {
  const StringRows in(a);
  std::vector<double> out(static_cast<std::size_t>(a.size()));
  std::string scratch;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = ParseDouble(in[static_cast<long>(i)], scratch);
  }
  return Column::Doubles(std::move(out));
}

Column IntToDouble(const Column& a) {
  auto in = a.ints();
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<double>(in[i]);
  }
  return Column::Doubles(std::move(out));
}

double ColSum(const Column& a) {
  auto in = a.doubles();
  return std::accumulate(in.begin(), in.end(), 0.0);
}

double ColMin(const Column& a) {
  auto in = a.doubles();
  MZ_CHECK_MSG(!in.empty(), "ColMin over an empty column");
  return *std::min_element(in.begin(), in.end());
}

double ColMax(const Column& a) {
  auto in = a.doubles();
  MZ_CHECK_MSG(!in.empty(), "ColMax over an empty column");
  return *std::max_element(in.begin(), in.end());
}

double ColCount(const Column& a) { return static_cast<double>(a.size()); }

Column ColFromFrame(const DataFrame& frame, long index) {
  return frame.col(static_cast<int>(index));
}

DataFrame WithColumn(const DataFrame& frame, const std::string& name, const Column& col) {
  return frame.WithColumn(name, col);
}

DataFrame FilterRows(const DataFrame& frame, const Column& mask) {
  auto m = mask.ints();
  MZ_CHECK_MSG(static_cast<long>(m.size()) == frame.num_rows(), "filter mask length mismatch");
  // Branchless selection vector: every row is written, only kept rows
  // advance, so it needs no zero fill.
  auto keep = std::make_unique_for_overwrite<long[]>(m.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    keep[k] = static_cast<long>(i);
    k += m[i] != 0 ? 1 : 0;
  }
  std::vector<std::string> names = frame.names();
  return DataFrame::Make(std::move(names), TakeColumns(frame, {keep.get(), k}));
}

DataFrame GroupByAgg(const DataFrame& frame, long key0, long key1, long val, long op) {
  const Column& k0 = frame.col(static_cast<int>(key0));
  const Column* k1 = key1 >= 0 ? &frame.col(static_cast<int>(key1)) : nullptr;
  const ValueReader value(frame.col(static_cast<int>(val)));
  const long rows = frame.num_rows();

  // The aggregates `op` emits: one (sum, count, min or max) or two (a
  // mean's sum and count). Sums and counts start at 0 and add every row of
  // the group; min and max start at its first value.
  std::vector<long> first_rows;
  std::vector<std::vector<double>> aggs(op == kAggMean ? 2 : 1);
  auto aggregate = [&](auto op_constant, auto key_at) {
    constexpr long kOp = decltype(op_constant)::value;
    constexpr std::size_t kWidth = kOp == kAggMean ? 2 : 1;
    FlatGroups<decltype(key_at(0L))> groups(GroupsUpFront(rows));
    std::vector<long> group_first_rows;
    std::vector<double> group_aggs;  // group g's at [g * kWidth, (g + 1) * kWidth)
    group_first_rows.reserve(static_cast<std::size_t>(GroupsUpFront(rows)));
    group_aggs.reserve(static_cast<std::size_t>(GroupsUpFront(rows)) * kWidth);
    for (long r = 0; r < rows; ++r) {
      const auto [g, inserted] = groups.Insert(key_at(r));
      if (inserted) {
        group_first_rows.push_back(r);
      }
      if constexpr (kOp == kAggMin || kOp == kAggMax) {
        const double x = value(r);
        if (inserted) {
          group_aggs.push_back(x);
        } else {
          double& acc = group_aggs[static_cast<std::size_t>(g)];
          acc = kOp == kAggMin ? std::min(acc, x) : std::max(acc, x);
        }
        continue;
      }
      if (inserted) {
        for (std::size_t v = 0; v < kWidth; ++v) {
          group_aggs.push_back(0);
        }
      }
      double* acc = &group_aggs[static_cast<std::size_t>(g) * kWidth];
      if constexpr (kOp == kAggCount) {
        acc[0] += 1;
      } else {
        acc[0] += value(r);
        if constexpr (kOp == kAggMean) {
          acc[1] += 1;
        }
      }
    }
    InMapOrder(groups.keys(), group_first_rows, group_aggs, first_rows, aggs);
  };
  WithKeys(k0, k1, [&](auto key_at) {
    switch (op) {
      case kAggSum:
        return aggregate(std::integral_constant<long, kAggSum>(), key_at);
      case kAggCount:
        return aggregate(std::integral_constant<long, kAggCount>(), key_at);
      case kAggMean:
        return aggregate(std::integral_constant<long, kAggMean>(), key_at);
      case kAggMin:
        return aggregate(std::integral_constant<long, kAggMin>(), key_at);
      case kAggMax:
        return aggregate(std::integral_constant<long, kAggMax>(), key_at);
      default:
        MZ_THROW("unknown aggregation op " << op);
    }
  });

  // Materialize: key columns keep their original types and names.
  std::vector<std::string> names;
  std::vector<Column> cols;
  names.push_back(frame.names()[static_cast<std::size_t>(key0)]);
  cols.push_back(k0.Take(first_rows));
  if (k1 != nullptr) {
    names.push_back(frame.names()[static_cast<std::size_t>(key1)]);
    cols.push_back(k1->Take(first_rows));
  }
  static const char* const kAggNames[] = {"sum", "count", "sum", "min", "max"};
  names.push_back(kAggNames[op]);
  if (op == kAggMean) {
    names.push_back("count");
  }
  for (std::vector<double>& col : aggs) {
    cols.push_back(Column::Doubles(std::move(col)));
  }
  return DataFrame::Make(std::move(names), std::move(cols));
}

DataFrame HashJoin(const DataFrame& left, const DataFrame& right, long left_key, long right_key) {
  const Column& lk = left.col(static_cast<int>(left_key));
  const Column& rk = right.col(static_cast<int>(right_key));

  // The matching (left row, right row) pairs, left-row-major with each left
  // row's matches in right-row order.
  std::vector<long> lrows;
  std::vector<long> rrows;
  auto join = [&](auto left_key_at, auto right_key_at) {
    // Build: the right side's keys as groups.
    const long nr = right.num_rows();
    FlatGroups<decltype(right_key_at(0L))> build(nr);
    std::vector<long> group_of(static_cast<std::size_t>(nr));
    for (long r = 0; r < nr; ++r) {
      group_of[static_cast<std::size_t>(r)] = build.Insert(right_key_at(r)).first;
    }
    // Each group's right rows in row order at by_group[start[g],
    // start[g + 1]) (a counting sort).
    std::vector<long> start(build.keys().size() + 2, 0);
    for (long g : group_of) {
      ++start[static_cast<std::size_t>(g) + 2];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<long> by_group(static_cast<std::size_t>(nr));
    for (long r = 0; r < nr; ++r) {
      const auto g = static_cast<std::size_t>(group_of[static_cast<std::size_t>(r)]);
      by_group[static_cast<std::size_t>(start[g + 1]++)] = r;
    }

    lrows.reserve(static_cast<std::size_t>(left.num_rows()));
    rrows.reserve(static_cast<std::size_t>(left.num_rows()));
    for (long r = 0; r < left.num_rows(); ++r) {
      const long g = build.Find(left_key_at(r));
      if (g < 0) {
        continue;
      }
      const auto gi = static_cast<std::size_t>(g);
      for (long i = start[gi]; i < start[gi + 1]; ++i) {
        lrows.push_back(r);
        rrows.push_back(by_group[static_cast<std::size_t>(i)]);
      }
    }
  };
  if (lk.is_string() || rk.is_string()) {
    join([&](long r) { return KeyAt(lk, nullptr, r); },
         [&](long r) { return KeyAt(rk, nullptr, r); });
  } else {
    NumKeyReader lr(&lk);
    NumKeyReader rr(&rk);
    join([lr](long r) { return NumKey{lr(r), 0}; }, [rr](long r) { return NumKey{rr(r), 0}; });
  }

  std::vector<std::string> out_names = left.names();
  std::vector<Column> cols = TakeColumns(left, lrows);
  for (int c = 0; c < right.num_cols(); ++c) {
    if (c == static_cast<int>(right_key)) {
      continue;
    }
    std::string name = right.names()[static_cast<std::size_t>(c)];
    if (left.col_index(name) >= 0) {
      name += "_right";
    }
    out_names.push_back(name);
    cols.push_back(right.col(c).Take(rrows));
  }
  return DataFrame::Make(std::move(out_names), std::move(cols));
}

DataFrame ReAggregate(const DataFrame& partials, long num_keys, long op) {
  MZ_CHECK_MSG(num_keys == 1 || num_keys == 2, "ReAggregate supports 1 or 2 keys");
  MZ_CHECK_MSG(partials.num_cols() > static_cast<int>(num_keys), "no aggregate columns");
  const Column& k0 = partials.col(0);
  const Column* k1 = num_keys == 2 ? &partials.col(1) : nullptr;
  const int num_vals = partials.num_cols() - static_cast<int>(num_keys);
  const long rows = partials.num_rows();

  std::vector<std::span<const double>> in;
  for (int v = 0; v < num_vals; ++v) {
    in.push_back(partials.col(static_cast<int>(num_keys) + v).doubles());
  }
  std::vector<long> first_rows;
  std::vector<std::vector<double>> vals(static_cast<std::size_t>(num_vals));
  // Min and max partials fold by min and max; sum, count and mean partials
  // all re-sum.
  auto reaggregate = [&](auto fold, auto key_at) {
    FlatGroups<decltype(key_at(0L))> groups(GroupsUpFront(rows));
    std::vector<long> group_first_rows;
    std::vector<double> accs;  // group g's values at [g * num_vals, (g + 1) * num_vals)
    group_first_rows.reserve(static_cast<std::size_t>(GroupsUpFront(rows)));
    accs.reserve(static_cast<std::size_t>(GroupsUpFront(rows) * num_vals));
    for (long r = 0; r < rows; ++r) {
      auto [g, inserted] = groups.Insert(key_at(r));
      if (inserted) {
        group_first_rows.push_back(r);
        for (const auto& col : in) {
          accs.push_back(col[static_cast<std::size_t>(r)]);
        }
        continue;
      }
      for (int v = 0; v < num_vals; ++v) {
        double& acc = accs[static_cast<std::size_t>(g * num_vals + v)];
        acc = fold(acc, in[static_cast<std::size_t>(v)][static_cast<std::size_t>(r)]);
      }
    }
    InMapOrder(groups.keys(), group_first_rows, accs, first_rows, vals);
  };
  WithKeys(k0, k1, [&](auto key_at) {
    if (op == kAggMin) {
      reaggregate([](double acc, double x) { return std::min(acc, x); }, key_at);
    } else if (op == kAggMax) {
      reaggregate([](double acc, double x) { return std::max(acc, x); }, key_at);
    } else {
      reaggregate([](double acc, double x) { return acc + x; }, key_at);
    }
  });

  std::vector<std::string> names = partials.names();
  std::vector<Column> cols;
  cols.push_back(k0.Take(first_rows));
  if (k1 != nullptr) {
    cols.push_back(k1->Take(first_rows));
  }
  for (std::vector<double>& v : vals) {
    cols.push_back(Column::Doubles(std::move(v)));
  }
  return DataFrame::Make(std::move(names), std::move(cols));
}

DataFrame SortByKeys(const DataFrame& frame, int num_keys) {
  std::vector<long> order(static_cast<std::size_t>(frame.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  auto cmp_at = [&](const Column& c, long a, long b) -> int {
    switch (c.type()) {
      case ColType::kDouble: {
        double x = c.d(a);
        double y = c.d(b);
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case ColType::kInt64: {
        std::int64_t x = c.i64(a);
        std::int64_t y = c.i64(b);
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      case ColType::kString:
        return c.str(a).compare(c.str(b));
    }
    return 0;
  };
  std::stable_sort(order.begin(), order.end(), [&](long a, long b) {
    for (int k = 0; k < num_keys; ++k) {
      int c = cmp_at(frame.col(k), a, b);
      if (c != 0) {
        return c < 0;
      }
    }
    return false;
  });
  std::vector<std::string> names = frame.names();
  return DataFrame::Make(std::move(names), TakeColumns(frame, order));
}

}  // namespace df
