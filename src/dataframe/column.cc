#include "dataframe/column.h"

#include <cstring>

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
  long bytes = 0;
  for (const std::string& v : values) {
    bytes += static_cast<long>(v.size());
  }
  StringColumnBuilder b;
  b.Reserve(static_cast<long>(values.size()), bytes);
  for (const std::string& v : values) {
    b.Append(v);
  }
  return b.Finish();
}

Column Column::FromStrings(StringData data) {
  Column c;
  c.type_ = ColType::kString;
  c.len_ = static_cast<long>(data.offsets.size()) - 1;
  c.s_ = std::make_shared<const StringData>(std::move(data));
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

std::span<const std::int64_t> Column::string_offsets() const {
  MZ_CHECK_MSG(is_string(), "column is not string-typed");
  return {s_->offsets.data() + offset_, static_cast<std::size_t>(len_ + 1)};
}

const char* Column::string_bytes() const {
  MZ_CHECK_MSG(is_string(), "column is not string-typed");
  return s_->bytes.data();
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
    case ColType::kString: {
      // Gather the lengths into offsets, then copy each payload. resize also
      // zero-fills the payload, but appending row by row measured slower.
      const std::int64_t* in = string_offsets().data();
      StringData out;
      out.offsets.resize(rows.size() + 1);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        out.offsets[k + 1] = out.offsets[k] + (in[rows[k] + 1] - in[rows[k]]);
      }
      out.bytes.resize(static_cast<std::size_t>(out.offsets.back() + kStringPadding));
      const char* src = string_bytes();
      char* dst = out.bytes.data();
      for (std::size_t k = 0; k < rows.size(); ++k) {
        std::memcpy(dst + out.offsets[k], src + in[rows[k]],
                    static_cast<std::size_t>(out.offsets[k + 1] - out.offsets[k]));
      }
      return FromStrings(std::move(out));
    }
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
      // Copy each part's byte range and rebase its offsets onto the output.
      std::int64_t payload = 0;
      for (const Column& p : parts) {
        auto o = p.string_offsets();
        payload += o.back() - o.front();
      }
      StringData out;
      out.offsets.resize(static_cast<std::size_t>(total) + 1);
      out.bytes.reserve(static_cast<std::size_t>(payload + kStringPadding));
      std::int64_t* offsets = out.offsets.data() + 1;
      for (const Column& p : parts) {
        auto o = p.string_offsets();
        const auto base = static_cast<std::int64_t>(out.bytes.size());
        out.bytes.insert(out.bytes.end(), p.string_bytes() + o.front(),
                         p.string_bytes() + o.back());
        for (std::size_t i = 1; i < o.size(); ++i) {
          *offsets++ = o[i] - o.front() + base;
        }
      }
      out.bytes.resize(out.bytes.size() + kStringPadding);
      return FromStrings(std::move(out));
    }
  }
  MZ_THROW("unreachable column type");
}

void StringColumnBuilder::Reserve(long rows, long bytes) {
  offsets_.reserve(offsets_.size() + static_cast<std::size_t>(rows));
  bytes_.reserve(bytes_.size() + static_cast<std::size_t>(bytes + kStringPadding));
}

Column StringColumnBuilder::Finish() {
  bytes_.resize(bytes_.size() + kStringPadding);
  Column::StringData data{std::move(offsets_), std::move(bytes_)};
  offsets_.assign(1, 0);
  bytes_.clear();
  return Column::FromStrings(std::move(data));
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
