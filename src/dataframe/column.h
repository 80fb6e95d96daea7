// Column: an immutable, typed, shared column of values — the Series of our
// Pandas-like substrate.
//
// Columns are cheap to copy and cheap to slice: storage is a shared vector
// and a slice is an (offset, length) view over it. That property is what
// makes row-range splitting (SeriesSplit / FrameSplit) nearly free, mirroring
// how the paper's Pandas integration splits DataFrames by row.
//
// Missing numeric data is NaN (Pandas convention); missing strings are "".
#ifndef MOZART_DATAFRAME_COLUMN_H_
#define MOZART_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace df {

enum class ColType { kDouble, kInt64, kString };

class Column {
 public:
  Column() = default;

  static Column Doubles(std::vector<double> values);
  static Column Ints(std::vector<std::int64_t> values);
  static Column Strings(std::vector<std::string> values);

  ColType type() const { return type_; }
  long size() const { return len_; }
  bool empty() const { return len_ == 0; }

  bool is_double() const { return type_ == ColType::kDouble; }
  bool is_int() const { return type_ == ColType::kInt64; }
  bool is_string() const { return type_ == ColType::kString; }

  // Element access (bounds unchecked in release; type checked).
  double d(long i) const { return doubles()[static_cast<std::size_t>(i)]; }
  std::int64_t i64(long i) const { return ints()[static_cast<std::size_t>(i)]; }
  const std::string& str(long i) const { return strings()[static_cast<std::size_t>(i)]; }

  std::span<const double> doubles() const;
  std::span<const std::int64_t> ints() const;
  std::span<const std::string> strings() const;

  // Zero-copy view over rows [r0, r1).
  Column Slice(long r0, long r1) const;

  // Gather: a new column whose k-th value is this column's row rows[k]. Every
  // row must lie in [0, size()); rows may repeat and come in any order.
  Column Take(std::span<const long> rows) const;

  // Concatenates columns of identical type in order.
  static Column Concat(std::span<const Column> parts);

  // Approximate bytes per row, used by the splitter's Info().
  long BytesPerRow() const;

 private:
  ColType type_ = ColType::kDouble;
  std::shared_ptr<const std::vector<double>> d_;
  std::shared_ptr<const std::vector<std::int64_t>> i_;
  std::shared_ptr<const std::vector<std::string>> s_;
  long offset_ = 0;
  long len_ = 0;
};

}  // namespace df

#endif  // MOZART_DATAFRAME_COLUMN_H_
