#include "dataframe/ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
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

template <typename F>
Column MapString(const Column& a, F f) {
  auto in = a.strings();
  std::vector<std::string> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = f(in[i]);
  }
  return Column::Strings(std::move(out));
}

template <typename F>
Column MaskFromString(const Column& a, F pred) {
  auto in = a.strings();
  std::vector<std::int64_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = pred(in[i]) ? 1 : 0;
  }
  return Column::Ints(std::move(out));
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
  static const std::size_t h = std::hash<std::string>()("");
  return h;
}

// Group keys as strings are hashed by value; numeric keys by bit pattern.
struct GroupKey {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::string sa;
  std::string sb;

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
    return FoldKeyHash(k.a, k.b, std::hash<std::string>()(k.sa), std::hash<std::string>()(k.sb));
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

Column StrStartsWith(const Column& a, const std::string& prefix) {
  return MaskFromString(a, [&](const std::string& s) { return s.starts_with(prefix); });
}

Column StrContains(const Column& a, const std::string& needle) {
  return MaskFromString(a, [&](const std::string& s) { return s.find(needle) != std::string::npos; });
}

Column StrSlice(const Column& a, long start, long len) {
  return MapString(a, [start, len](const std::string& s) {
    if (static_cast<std::size_t>(start) >= s.size()) {
      return std::string();
    }
    return s.substr(static_cast<std::size_t>(start), static_cast<std::size_t>(len));
  });
}

Column StrRemoveChar(const Column& a, char ch) {
  return MapString(a, [ch](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c != ch) {
        out.push_back(c);
      }
    }
    return out;
  });
}

Column StrIsNumeric(const Column& a) {
  return MaskFromString(a, [](const std::string& s) {
    if (s.empty()) {
      return false;
    }
    return std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
  });
}

Column StrLen(const Column& a) {
  auto in = a.strings();
  std::vector<std::int64_t> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<std::int64_t>(in[i].size());
  }
  return Column::Ints(std::move(out));
}

Column StrWhere(const Column& mask, const Column& a, const std::string& otherwise) {
  auto m = mask.ints();
  auto in = a.strings();
  MZ_CHECK_MSG(m.size() == in.size(), "mask length mismatch");
  std::vector<std::string> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = m[i] != 0 ? in[i] : otherwise;
  }
  return Column::Strings(std::move(out));
}

Column StrToDouble(const Column& a) {
  auto in = a.strings();
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    try {
      std::size_t pos = 0;
      double v = std::stod(in[i], &pos);
      out[i] = pos == in[i].size() ? v : std::nan("");
    } catch (...) {
      out[i] = std::nan("");
    }
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
  // Branchless selection vector: every row is written, only kept rows advance.
  std::vector<long> keep(m.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    keep[k] = static_cast<long>(i);
    k += m[i] != 0 ? 1 : 0;
  }
  keep.resize(k);
  std::vector<std::string> names = frame.names();
  return DataFrame::Make(std::move(names), TakeColumns(frame, keep));
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
    std::unordered_map<decltype(key_at(0L)), Agg, KeyHash> groups;
    for (long r = 0; r < frame.num_rows(); ++r) {
      auto [it, inserted] = groups.try_emplace(key_at(r));
      Agg& agg = it->second;
      double x = value(r);
      if (inserted) {
        agg.mn = x;
        agg.mx = x;
        agg.first_row = r;
      } else {
        agg.mn = std::min(agg.mn, x);
        agg.mx = std::max(agg.mx, x);
      }
      agg.sum += x;
      agg.count += 1;
    }
    for (const auto& [key, agg] : groups) {
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

  struct Entry {
    std::vector<double> vals;
    long first_row = 0;
  };
  std::vector<long> first_rows;
  std::vector<std::vector<double>> vals(static_cast<std::size_t>(num_vals));
  WithKeys(k0, k1, [&](auto key_at) {
    std::unordered_map<decltype(key_at(0L)), Entry, KeyHash> groups;
    for (long r = 0; r < partials.num_rows(); ++r) {
      auto [it, inserted] = groups.try_emplace(key_at(r));
      Entry& e = it->second;
      if (inserted) {
        e.first_row = r;
        e.vals.resize(static_cast<std::size_t>(num_vals));
        for (int v = 0; v < num_vals; ++v) {
          e.vals[static_cast<std::size_t>(v)] =
              partials.col(static_cast<int>(num_keys) + v).d(r);
        }
        continue;
      }
      for (int v = 0; v < num_vals; ++v) {
        double x = partials.col(static_cast<int>(num_keys) + v).d(r);
        double& acc = e.vals[static_cast<std::size_t>(v)];
        if (fold_min) {
          acc = std::min(acc, x);
        } else if (fold_max) {
          acc = std::max(acc, x);
        } else {
          acc += x;  // sum, count, and mean partials all re-sum
        }
      }
    }
    for (const auto& [key, e] : groups) {
      first_rows.push_back(e.first_row);
      for (int v = 0; v < num_vals; ++v) {
        vals[static_cast<std::size_t>(v)].push_back(e.vals[static_cast<std::size_t>(v)]);
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
