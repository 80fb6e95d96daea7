#include "dataframe/column.h"

#include "common/check.h"

namespace df {

Column Column::Doubles(std::vector<double> values) {
  Column c;
  c.type_ = ColType::kDouble;
  c.len_ = static_cast<long>(values.size());
  c.d_ = std::make_shared<const std::vector<double>>(std::move(values));
  return c;
}

Column Column::Ints(std::vector<std::int64_t> values) {
  Column c;
  c.type_ = ColType::kInt64;
  c.len_ = static_cast<long>(values.size());
  c.i_ = std::make_shared<const std::vector<std::int64_t>>(std::move(values));
  return c;
}

Column Column::Strings(std::vector<std::string> values) {
  Column c;
  c.type_ = ColType::kString;
  c.len_ = static_cast<long>(values.size());
  c.s_ = std::make_shared<const std::vector<std::string>>(std::move(values));
  return c;
}

std::span<const double> Column::doubles() const {
  MZ_CHECK_MSG(is_double(), "column is not double-typed");
  return {d_->data() + offset_, static_cast<std::size_t>(len_)};
}

std::span<const std::int64_t> Column::ints() const {
  MZ_CHECK_MSG(is_int(), "column is not int64-typed");
  return {i_->data() + offset_, static_cast<std::size_t>(len_)};
}

std::span<const std::string> Column::strings() const {
  MZ_CHECK_MSG(is_string(), "column is not string-typed");
  return {s_->data() + offset_, static_cast<std::size_t>(len_)};
}

Column Column::Slice(long r0, long r1) const {
  MZ_CHECK_MSG(r0 >= 0 && r0 <= r1 && r1 <= len_, "column slice out of range");
  Column c = *this;
  c.offset_ = offset_ + r0;
  c.len_ = r1 - r0;
  return c;
}

namespace {

template <typename T>
std::vector<T> Gather(std::span<const T> in, std::span<const long> rows) {
  std::vector<T> out(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    out[k] = in[static_cast<std::size_t>(rows[k])];
  }
  return out;
}

}  // namespace

Column Column::Take(std::span<const long> rows) const {
  switch (type_) {
    case ColType::kDouble:
      return Doubles(Gather(doubles(), rows));
    case ColType::kInt64:
      return Ints(Gather(ints(), rows));
    case ColType::kString:
      return Strings(Gather(strings(), rows));
  }
  MZ_THROW("unreachable column type");
}

Column Column::Concat(std::span<const Column> parts) {
  MZ_CHECK_MSG(!parts.empty(), "Column::Concat of nothing");
  ColType type = parts.front().type();
  long total = 0;
  for (const Column& p : parts) {
    MZ_CHECK_MSG(p.type() == type, "Column::Concat with mixed types");
    total += p.size();
  }
  switch (type) {
    case ColType::kDouble: {
      std::vector<double> out;
      out.reserve(static_cast<std::size_t>(total));
      for (const Column& p : parts) {
        auto s = p.doubles();
        out.insert(out.end(), s.begin(), s.end());
      }
      return Doubles(std::move(out));
    }
    case ColType::kInt64: {
      std::vector<std::int64_t> out;
      out.reserve(static_cast<std::size_t>(total));
      for (const Column& p : parts) {
        auto s = p.ints();
        out.insert(out.end(), s.begin(), s.end());
      }
      return Ints(std::move(out));
    }
    case ColType::kString: {
      std::vector<std::string> out;
      out.reserve(static_cast<std::size_t>(total));
      for (const Column& p : parts) {
        auto s = p.strings();
        out.insert(out.end(), s.begin(), s.end());
      }
      return Strings(std::move(out));
    }
  }
  MZ_THROW("unreachable column type");
}

long Column::BytesPerRow() const {
  switch (type_) {
    case ColType::kDouble:
    case ColType::kInt64:
      return 8;
    case ColType::kString:
      return 40;  // string header + typical short payload
  }
  return 8;
}

}  // namespace df
