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
#include <unordered_map>

#include "common/check.h"

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

// Folds a key's four member hashes into one hash code.
std::size_t FoldKeyHash(std::int64_t a, std::int64_t b, std::size_t hsa, std::size_t hsb) {
  std::size_t h = std::hash<std::int64_t>()(a);
  h = h * 1315423911u ^ std::hash<std::int64_t>()(b);
  h = h * 1315423911u ^ hsa;
  h = h * 1315423911u ^ hsb;
  return h;
}

std::size_t EmptyStringHash() {
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
// as the GroupKey with the same numbers and empty strings, so a map keyed by
// NumKey iterates its groups in the same order as one keyed by GroupKey.
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

// The flat table's hash: KeyHash for string keys; numeric keys skip its
// folds with the empty-string hash.
inline std::size_t FlatHash(const GroupKey& k) { return KeyHash()(k); }
inline std::size_t FlatHash(const NumKey& k) {
  return static_cast<std::size_t>(k.a) * 0x9E3779B97F4A7C15ull ^ static_cast<std::size_t>(k.b);
}

// Groups keys in first-occurrence order through an open-addressing table.
template <typename Key>
class FlatGroups {
 public:
  // The group index of `key` and whether this call added the group.
  std::pair<long, bool> Insert(const Key& key) {
    if (4 * (keys_.size() + 1) > slots_.size()) {
      Grow();
    }
    const std::size_t h = FlatHash(key);
    for (std::size_t i = Slot(h);; i = (i + 1) & (slots_.size() - 1)) {
      const long g = slots_[i];
      if (g < 0) {
        slots_[i] = static_cast<long>(keys_.size());
        keys_.push_back(key);
        hashes_.push_back(h);
        return {slots_[i], true};
      }
      if (hashes_[static_cast<std::size_t>(g)] == h && keys_[static_cast<std::size_t>(g)] == key) {
        return {g, false};
      }
    }
  }

  // The keys by group index.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  // Fibonacci hashing: the top bits of h times 2^64/phi.
  std::size_t Slot(std::size_t h) const { return (h * 0x9E3779B97F4A7C15ull) >> shift_; }

  void Grow() {
    const std::size_t size = std::max<std::size_t>(16, 2 * slots_.size());
    shift_ = 64 - std::countr_zero(size);
    slots_.assign(size, -1);
    for (std::size_t g = 0; g < keys_.size(); ++g) {
      std::size_t i = Slot(hashes_[g]);
      while (slots_[i] >= 0) {
        i = (i + 1) & (size - 1);
      }
      slots_[i] = static_cast<long>(g);
    }
  }

  std::vector<long> slots_;  // group index, or -1 when empty
  std::vector<Key> keys_;
  std::vector<std::size_t> hashes_;
  int shift_ = 64;
};

// Group indexes in the order a std::unordered_map<Key, _, KeyHash> iterates
// its keys when they are inserted in index order. libstdc++'s iteration
// order depends only on the sequence of distinct insertions, so this is the
// order a hash-map group-by inserting groups as they occur emits them in.
template <typename Key>
std::vector<long> HashMapOrder(const std::vector<Key>& keys) {
  std::unordered_map<Key, long, KeyHash> map;
  for (std::size_t g = 0; g < keys.size(); ++g) {
    map.emplace(keys[g], static_cast<long>(g));
  }
  std::vector<long> order;
  order.reserve(keys.size());
  for (const auto& [key, g] : map) {
    order.push_back(g);
  }
  return order;
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
  ValueReader value(frame.col(static_cast<int>(val)));

  struct Agg {
    double sum = 0;
    double count = 0;
    double mn = 0;
    double mx = 0;
    long first_row = 0;
  };
  std::vector<long> first_rows;
  std::vector<double> sums;
  std::vector<double> counts;
  std::vector<double> mins;
  std::vector<double> maxs;
  WithKeys(k0, k1, [&](auto key_at) {
    FlatGroups<decltype(key_at(0L))> groups;
    std::vector<Agg> aggs;
    for (long r = 0; r < frame.num_rows(); ++r) {
      auto [g, inserted] = groups.Insert(key_at(r));
      double x = value(r);
      if (inserted) {
        aggs.push_back({.mn = x, .mx = x, .first_row = r});
      }
      Agg& agg = aggs[static_cast<std::size_t>(g)];
      if (!inserted) {
        agg.mn = std::min(agg.mn, x);
        agg.mx = std::max(agg.mx, x);
      }
      agg.sum += x;
      agg.count += 1;
    }
    for (long g : HashMapOrder(groups.keys())) {
      const Agg& agg = aggs[static_cast<std::size_t>(g)];
      first_rows.push_back(agg.first_row);
      sums.push_back(agg.sum);
      counts.push_back(agg.count);
      mins.push_back(agg.mn);
      maxs.push_back(agg.mx);
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
  switch (op) {
    case kAggSum:
      names.push_back("sum");
      cols.push_back(Column::Doubles(std::move(sums)));
      break;
    case kAggCount:
      names.push_back("count");
      cols.push_back(Column::Doubles(std::move(counts)));
      break;
    case kAggMean:
      names.push_back("sum");
      cols.push_back(Column::Doubles(std::move(sums)));
      names.push_back("count");
      cols.push_back(Column::Doubles(std::move(counts)));
      break;
    case kAggMin:
      names.push_back("min");
      cols.push_back(Column::Doubles(std::move(mins)));
      break;
    case kAggMax:
      names.push_back("max");
      cols.push_back(Column::Doubles(std::move(maxs)));
      break;
    default:
      MZ_THROW("unknown aggregation op " << op);
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
    std::unordered_map<decltype(right_key_at(0L)), std::vector<long>, KeyHash> build;
    for (long r = 0; r < right.num_rows(); ++r) {
      build[right_key_at(r)].push_back(r);
    }
    lrows.reserve(static_cast<std::size_t>(left.num_rows()));
    rrows.reserve(static_cast<std::size_t>(left.num_rows()));
    for (long r = 0; r < left.num_rows(); ++r) {
      auto it = build.find(left_key_at(r));
      if (it == build.end()) {
        continue;
      }
      for (long rr : it->second) {
        lrows.push_back(r);
        rrows.push_back(rr);
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
  const bool fold_min = op == kAggMin;
  const bool fold_max = op == kAggMax;

  std::vector<std::span<const double>> in;
  for (int v = 0; v < num_vals; ++v) {
    in.push_back(partials.col(static_cast<int>(num_keys) + v).doubles());
  }
  std::vector<long> first_rows;
  std::vector<std::vector<double>> vals(static_cast<std::size_t>(num_vals));
  WithKeys(k0, k1, [&](auto key_at) {
    FlatGroups<decltype(key_at(0L))> groups;
    std::vector<long> group_first_rows;
    std::vector<double> accs;  // group g's values at [g * num_vals, (g + 1) * num_vals)
    for (long r = 0; r < partials.num_rows(); ++r) {
      auto [g, inserted] = groups.Insert(key_at(r));
      if (inserted) {
        group_first_rows.push_back(r);
        for (const auto& col : in) {
          accs.push_back(col[static_cast<std::size_t>(r)]);
        }
        continue;
      }
      for (int v = 0; v < num_vals; ++v) {
        double x = in[static_cast<std::size_t>(v)][static_cast<std::size_t>(r)];
        double& acc = accs[static_cast<std::size_t>(g * num_vals + v)];
        if (fold_min) {
          acc = std::min(acc, x);
        } else if (fold_max) {
          acc = std::max(acc, x);
        } else {
          acc += x;  // sum, count, and mean partials all re-sum
        }
      }
    }
    for (long g : HashMapOrder(groups.keys())) {
      first_rows.push_back(group_first_rows[static_cast<std::size_t>(g)]);
      for (int v = 0; v < num_vals; ++v) {
        vals[static_cast<std::size_t>(v)].push_back(
            accs[static_cast<std::size_t>(g * num_vals + v)]);
      }
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
