// Column: an immutable, typed, shared column of values — the Series of our
// Pandas-like substrate.
//
// Columns are cheap to copy and cheap to slice: storage is a shared vector
// and a slice is an (offset, length) view over it. That property is what
// makes row-range splitting (SeriesSplit / FrameSplit) nearly free, mirroring
// how the paper's Pandas integration splits DataFrames by row.
//
// A string column is stored as Arrow and pandas 2 store one: an int64
// offsets array with one more entry than rows, and one byte buffer holding
// every row's bytes back to back; row i is bytes[offsets[i], offsets[i+1]).
// A slice shares both. The byte buffer ends in kStringPadding zero bytes, so
// a kernel may load 8 bytes at any row's start without leaving the buffer.
//
// Missing numeric data is NaN (Pandas convention); missing strings are "".
#ifndef MOZART_DATAFRAME_COLUMN_H_
#define MOZART_DATAFRAME_COLUMN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace df {

enum class ColType { kDouble, kInt64, kString };

// Zero bytes after the last string in every string byte buffer.
inline constexpr long kStringPadding = 8;

class StringColumnBuilder;

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
  std::string_view str(long i) const;

  std::span<const double> doubles() const;
  std::span<const std::int64_t> ints() const;
  // A string column's size() + 1 offsets into string_bytes(); a slice's
  // first offset need not be 0.
  std::span<const std::int64_t> string_offsets() const;
  const char* string_bytes() const;

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
  friend class StringColumnBuilder;

  struct StringData {
    std::vector<std::int64_t> offsets;
    std::vector<char> bytes;  // payload, then kStringPadding zero bytes
  };

  static Column FromStrings(StringData data);

  ColType type_ = ColType::kDouble;
  std::shared_ptr<const std::vector<double>> d_;
  std::shared_ptr<const std::vector<std::int64_t>> i_;
  std::shared_ptr<const StringData> s_;
  long offset_ = 0;
  long len_ = 0;
};

// Row access to a string column for kernel loops: the type is checked once,
// at construction, and rows are not bounds-checked.
class StringRows {
 public:
  explicit StringRows(const Column& c)
      : offsets_(c.string_offsets().data()), bytes_(c.string_bytes()) {}

  std::string_view operator[](long i) const {
    return {bytes_ + offsets_[i], static_cast<std::size_t>(offsets_[i + 1] - offsets_[i])};
  }

 private:
  const std::int64_t* offsets_;
  const char* bytes_;
};

inline std::string_view Column::str(long i) const { return StringRows(*this)[i]; }

// Builds a string column row by row: Append each row's bytes, then Finish.
class StringColumnBuilder {
 public:
  StringColumnBuilder() { offsets_.push_back(0); }

  // Capacity for `rows` more rows holding `bytes` more payload bytes.
  void Reserve(long rows, long bytes);

  void Append(std::string_view s) {
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    offsets_.push_back(static_cast<std::int64_t>(bytes_.size()));
  }

  // The finished column; the builder is left empty.
  Column Finish();

 private:
  std::vector<std::int64_t> offsets_;
  std::vector<char> bytes_;
};

}  // namespace df

#endif  // MOZART_DATAFRAME_COLUMN_H_
