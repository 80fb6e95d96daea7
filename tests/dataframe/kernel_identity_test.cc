// Byte-identity golden test for the row-materializing DataFrame kernels.
//
// Every case runs one kernel (FilterRows, GroupByAgg, ReAggregate, HashJoin,
// SortByKeys, the branchless MaskAnd, MaskOr and ColWhere, every string
// kernel, and string-column Take and Concat) over seeded synthetic frames
// and folds every output byte into an FNV-1a digest: column
// names, column types, row count and each value's bytes in row order.
// Group-by and join outputs are digested as produced, *not* canonicalized,
// so the digests also pin hash-table group order. A kernel rewrite must
// reproduce these digests exactly; a mismatch prints the new digest in the
// same form as the table below.
//
// Group order follows libstdc++'s std::hash and bucket policy, so the
// digests are specific to that standard library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "dataframe/ops.h"
#include "workloads/data_gen.h"

namespace {

using df::Column;
using df::DataFrame;

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t Digest(const DataFrame& f) {
  Fnv1a h;
  h.U64(static_cast<std::uint64_t>(f.num_cols()));
  h.U64(static_cast<std::uint64_t>(f.num_rows()));
  for (int c = 0; c < f.num_cols(); ++c) {
    const Column& col = f.col(c);
    h.Str(f.names()[static_cast<std::size_t>(c)]);
    h.U64(static_cast<std::uint64_t>(col.type()));
    switch (col.type()) {
      case df::ColType::kDouble:
        for (double x : col.doubles()) {
          h.Bytes(&x, sizeof(x));
        }
        break;
      case df::ColType::kInt64:
        for (std::int64_t x : col.ints()) {
          h.Bytes(&x, sizeof(x));
        }
        break;
      case df::ColType::kString:
        for (long r = 0; r < col.size(); ++r) {
          h.Str(col.str(r));
        }
        break;
    }
  }
  return h.value();
}

// Strings the string kernels must treat byte for byte: empty, one byte,
// short (in-place) and over 15 bytes (heap-allocated as std::string),
// embedded NUL, non-ASCII bytes and numeric-looking values. The first rows
// are the pool itself; the rest concatenate 0-3 seeded picks from it.
std::vector<std::string> TrickyStrings() {
  const std::vector<std::string> pool = {"",
                                         "L",
                                         "Le",
                                         "Lesl",
                                         "Leslie",
                                         "Lesley",
                                         "Lesl\xc3\xa9",
                                         "e",
                                         "-",
                                         "ee-e",
                                         std::string("Le\0sl", 5),
                                         std::string("\0", 1),
                                         "\xc3\xa9t\xc3\xa9",
                                         "\xff\xfe\x80",
                                         "12345",
                                         "0x1p3",
                                         " 1.5",
                                         "1e400",
                                         "Leslie Anne-Marie Smithson",
                                         "0123456789012345678",
                                         "city123",
                                         "NO CLUE",
                                         "N/A",
                                         "10001-2345"};
  mz::Rng rng(17);
  std::vector<std::string> out = pool;
  for (int i = 0; i < 1500; ++i) {
    std::string s;
    for (std::uint64_t parts = rng.NextBounded(4); parts > 0; --parts) {
      s += pool[rng.NextBounded(pool.size())];
    }
    out.push_back(std::move(s));
  }
  return out;
}

// The seeded inputs every case draws from.
struct Inputs {
  DataFrame babies = workloads::MakeBabyNames(6000, 11);
  DataFrame cities = workloads::MakeCityStats(3000, 12);
  workloads::MovieLensTables ml = workloads::MakeMovieLens(5000, 300, 120, 13);
  // Sliced views with a non-zero offset: kernels must honour it.
  DataFrame babies_sl = babies.Slice(977, 5011);
  DataFrame cities_sl = cities.Slice(301, 2999);
  DataFrame ratings_sl = ml.ratings.Slice(123, 4321);
  // Tricky strings with a small-int and a double column alongside.
  DataFrame tricky = [] {
    std::vector<std::string> s = TrickyStrings();
    std::vector<std::int64_t> k;
    std::vector<double> v;
    for (std::size_t i = 0; i < s.size(); ++i) {
      k.push_back(static_cast<std::int64_t>(i % 3));
      v.push_back(0.25 * static_cast<double>(i % 11) - 1.0);
    }
    return DataFrame::Make({"s", "k", "v"}, {Column::Strings(std::move(s)),
                                            Column::Ints(std::move(k)),
                                            Column::Doubles(std::move(v))});
  }();
  DataFrame tricky_sl = tricky.Slice(13, 1409);
};

const Inputs& In() {
  static const Inputs inputs;
  return inputs;
}

// The shapes Mozart calls the kernels at, one call per batch: Birth
// Analysis' Lesl-filtered births (2M rows, 555k after the filter, 140
// year/gender groups) in 2.25k-row pieces, and one 60.6k-row MovieLens
// ratings slice against the 40k-row `users` table.
struct BatchInputs {
  static constexpr long kPieceRows = 2250;
  DataFrame lesl = [] {
    DataFrame births = workloads::MakeBabyNames(2'000'000, 21);
    return df::FilterRows(births, df::StrStartsWith(births.col("name"), "Lesl"));
  }();
  workloads::MovieLensTables ml = workloads::MakeMovieLens(121'200, 40'010, 20'010, 22);
  DataFrame ratings_piece = ml.ratings.Slice(60'600, 121'200);
};

const BatchInputs& Batch() {
  static const BatchInputs inputs;
  return inputs;
}

// GroupByAgg over each 2.25k-row piece of the filtered births, the partials
// concatenated in piece order (248 of them).
DataFrame LeslPieces(long op) {
  const DataFrame& f = Batch().lesl;
  std::vector<DataFrame> parts;
  for (long r0 = 0; r0 < f.num_rows(); r0 += BatchInputs::kPieceRows) {
    parts.push_back(df::GroupByAgg(
        f.Slice(r0, std::min(f.num_rows(), r0 + BatchInputs::kPieceRows)), 1, 2, 3, op));
  }
  return DataFrame::Concat(parts);
}

Column ConstMask(long n, std::int64_t v) {
  return Column::Ints(std::vector<std::int64_t>(static_cast<std::size_t>(n), v));
}

// Partials for ReAggregate: the same group-by over two halves, concatenated.
DataFrame Partials(const DataFrame& f, long key0, long key1, long val, long op) {
  long mid = f.num_rows() / 2;
  std::vector<DataFrame> parts = {df::GroupByAgg(f.Slice(0, mid), key0, key1, val, op),
                                  df::GroupByAgg(f.Slice(mid, f.num_rows()), key0, key1, val, op)};
  return DataFrame::Concat(parts);
}

// Patterns of length 0, 1-8, 9 and more, and longer than any row; with
// embedded NUL and non-ASCII bytes.
const std::vector<std::string>& Patterns() {
  static const std::vector<std::string> patterns = {
      "", "L", "e", "\xc3", std::string("\0", 1), "Le", "-2", "Les", "1e4", "Lesl",
      std::string("Le\0s", 4), "Lesli", "0x1p3", "Leslie", "N/A-10", "Lesl\xc3\xa9",
      "Lesley ", "Leslie A", "01234567", "Leslie An", "123456789", "Leslie Anne-Marie Smithson",
      std::string(40, 'e'), std::string(200, 'L')};
  return patterns;
}

// Every string kernel over string column `s`: one output column per
// (kernel, argument), named after both.
DataFrame StringKernels(const Column& s) {
  std::vector<std::string> names;
  std::vector<Column> cols;
  auto add = [&](std::string name, Column c) {
    names.push_back(std::move(name));
    cols.push_back(std::move(c));
  };
  for (std::size_t p = 0; p < Patterns().size(); ++p) {
    add("starts" + std::to_string(p), df::StrStartsWith(s, Patterns()[p]));
    add("contains" + std::to_string(p), df::StrContains(s, Patterns()[p]));
  }
  const std::pair<long, long> slices[] = {{0, 0}, {0, 3}, {2, 5}, {4, 100}, {15, 4},
                                          {20, 4}, {200, 1}, {-1, 2}, {1, -1}};
  for (const auto& [start, len] : slices) {
    add("slice" + std::to_string(start) + "_" + std::to_string(len), df::StrSlice(s, start, len));
  }
  for (char ch : {'e', '-', '\0', '\xc3'}) {
    add("remove" + std::to_string(static_cast<int>(ch)), df::StrRemoveChar(s, ch));
  }
  add("numeric", df::StrIsNumeric(s));
  add("len", df::StrLen(s));
  add("to_double", df::StrToDouble(s));
  Column lesl = df::StrStartsWith(s, "Le");
  add("where_x", df::StrWhere(lesl, s, "x"));
  add("where_empty", df::StrWhere(lesl, s, ""));
  add("where_long", df::StrWhere(df::MaskNot(lesl), s, "otherwise, a heap-sized string"));
  return DataFrame::Make(std::move(names), std::move(cols));
}

struct Case {
  const char* name;
  std::function<DataFrame()> run;
  std::uint64_t digest;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      // --- FilterRows ---
      {"filter/babies_lesl",
       [] {
         const DataFrame& f = In().babies;
         return df::FilterRows(f, df::StrStartsWith(f.col("name"), "Lesl"));
       },
       0xf1bdf18e37ad3797ull},
      {"filter/babies_sliced_lesl",
       [] {
         const DataFrame& f = In().babies_sl;
         return df::FilterRows(f, df::StrStartsWith(f.col("name"), "Lesl"));
       },
       0xa3c4a976518fdfffull},
      {"filter/cities_big",
       [] {
         const DataFrame& f = In().cities;
         return df::FilterRows(f, df::ColGtC(f.col("population"), 500000.0));
       },
       0x2110ef28f4717aa3ull},
      {"filter/cities_sliced_big",
       [] {
         const DataFrame& f = In().cities_sl;
         return df::FilterRows(f, df::ColGtC(f.col("population"), 500000.0));
       },
       0x7dd8a4925270f7d0ull},
      {"filter/ratings_sliced_high",
       [] {
         const DataFrame& f = In().ratings_sl;
         return df::FilterRows(f, df::ColGeC(f.col("rating"), 4.0));
       },
       0x17a090de636c614aull},
      {"filter/sliced_mask_column",
       [] {
         // The mask itself is a slice with a non-zero offset.
         const DataFrame& f = In().babies_sl;
         Column m = df::StrStartsWith(In().babies.col("name"), "Lesl").Slice(977, 5011);
         return df::FilterRows(f, m);
       },
       0xa3c4a976518fdfffull},
      {"filter/all_false",
       [] { return df::FilterRows(In().babies_sl, ConstMask(In().babies_sl.num_rows(), 0)); },
       0x85427ff37cd2aec6ull},
      {"filter/all_true",
       [] { return df::FilterRows(In().babies_sl, ConstMask(In().babies_sl.num_rows(), 1)); },
       0xc5e0d7ef3e42ee68ull},
      {"filter/nonunit_true",
       [] {
         // Any non-zero mask value keeps the row.
         const DataFrame& f = In().cities_sl;
         std::vector<std::int64_t> m(static_cast<std::size_t>(f.num_rows()));
         for (std::size_t i = 0; i < m.size(); ++i) {
           m[i] = static_cast<std::int64_t>(i % 3) - 1;
         }
         return df::FilterRows(f, Column::Ints(std::move(m)));
       },
       0x493295fa474703afull},
      {"filter/empty_frame",
       [] { return df::FilterRows(In().babies.Slice(40, 40), ConstMask(0, 1)); },
       0x85427ff37cd2aec6ull},

      // --- Branchless mask and select kernels ---
      {"select/masks_and_where",
       [] {
         // Mask values other than 0/1, and NaN, -0.0 and infinities to select.
         const double inf = std::numeric_limits<double>::infinity();
         std::vector<double> xs = {std::nan(""), -0.0, inf, -inf, 1.5};
         std::vector<std::int64_t> ms = {3, 0, -1, 1, 0};
         for (double p : In().cities_sl.col("population").doubles()) {
           xs.push_back(p);
           ms.push_back(static_cast<std::int64_t>(p) % 3);
         }
         Column x = Column::Doubles(xs);
         Column m = Column::Ints(ms);
         Column big = df::ColGtC(x, 500000.0);
         return DataFrame::Make({"and", "or", "not", "where", "where_nan"},
                                {df::MaskAnd(m, big), df::MaskOr(m, big), df::MaskNot(m),
                                 df::ColWhere(m, x, -0.0),
                                 df::ColWhere(big, x, std::nan(""))});
       },
       0x1a970d69664f7687ull},

      // --- GroupByAgg: int, double and string keys; one and two keys ---
      {"groupby/year_gender_sum",
       [] { return df::GroupByAgg(In().babies, 1, 2, 3, df::kAggSum); },
       0xd58b054862b3af81ull},
      {"groupby/year_gender_count_sliced",
       [] { return df::GroupByAgg(In().babies_sl, 1, 2, 3, df::kAggCount); },
       0xe4f7e0edee905a2ull},
      {"groupby/year_mean",
       [] { return df::GroupByAgg(In().babies, 1, -1, 3, df::kAggMean); },
       0x9259ed6e18a41102ull},
      {"groupby/year_min_sliced",
       [] { return df::GroupByAgg(In().babies_sl, 1, -1, 3, df::kAggMin); },
       0x4388b3323d1b7256ull},
      {"groupby/year_max_int_value",
       [] { return df::GroupByAgg(In().babies, 1, -1, 2, df::kAggMax); },
       0xd32b5489752049c3ull},
      {"groupby/name_sum",
       [] { return df::GroupByAgg(In().babies, 0, -1, 3, df::kAggSum); },
       0x8f14baf12bacbfcfull},
      {"groupby/name_gender_mean_sliced",
       [] { return df::GroupByAgg(In().babies_sl, 0, 2, 3, df::kAggMean); },
       0xfd93b809be19c481ull},
      {"groupby/gender_name_max",
       [] { return df::GroupByAgg(In().babies, 2, 0, 3, df::kAggMax); },
       0x1be63fd94aacca81ull},
      {"groupby/rating_count",
       [] { return df::GroupByAgg(In().ml.ratings, 2, -1, 1, df::kAggCount); },
       0x82bbcf649b7d95d7ull},
      {"groupby/movie_rating_sum_sliced",
       [] { return df::GroupByAgg(In().ratings_sl, 1, 2, 0, df::kAggSum); },
       0x460922ac09d724d4ull},
      {"groupby/population_min",
       [] { return df::GroupByAgg(In().cities, 1, -1, 2, df::kAggMin); },
       0xf6317a1be4e0bcb8ull},
      {"groupby/empty",
       [] { return df::GroupByAgg(In().babies.Slice(5, 5), 1, 2, 3, df::kAggSum); },
       0x50d75d8e0c847832ull},

      // --- ReAggregate over concatenated partials ---
      {"reagg/year_gender_sum",
       [] { return df::ReAggregate(Partials(In().babies, 1, 2, 3, df::kAggSum), 2, df::kAggSum); },
       0x9be3158017d847adull},
      {"reagg/year_mean_sliced",
       [] {
         return df::ReAggregate(Partials(In().babies_sl, 1, -1, 3, df::kAggMean), 1, df::kAggMean);
       },
       0x6ebb900c133e9db1ull},
      {"reagg/name_gender_min",
       [] { return df::ReAggregate(Partials(In().babies, 0, 2, 3, df::kAggMin), 2, df::kAggMin); },
       0x250f55433a0a4dd6ull},
      {"reagg/name_max",
       [] { return df::ReAggregate(Partials(In().babies, 0, -1, 3, df::kAggMax), 1, df::kAggMax); },
       0x4d07618a7ab02835ull},
      {"reagg/rating_count",
       [] {
         return df::ReAggregate(Partials(In().ml.ratings, 2, -1, 1, df::kAggCount), 1,
                                df::kAggCount);
       },
       0x3506d7f3c9a4ec57ull},
      {"reagg/sliced_partials",
       [] {
         DataFrame p = Partials(In().babies, 1, 2, 3, df::kAggSum);
         return df::ReAggregate(p.Slice(7, p.num_rows() - 3), 2, df::kAggSum);
       },
       0x3ae47c4221c25836ull},

      // --- HashJoin: duplicate build keys and misses ---
      {"join/ratings_users",
       [] { return df::HashJoin(In().ml.ratings, In().ml.users, 0, 0); },
       0x698262ce55932b5ull},
      {"join/ratings_sliced_users_sliced",
       // Users outside [40, 260) miss.
       [] { return df::HashJoin(In().ratings_sl, In().ml.users.Slice(40, 260), 0, 0); },
       0x3744b8f9214705f4ull},
      {"join/users_ratings_duplicates",
       // Build side has many rows per user.
       [] { return df::HashJoin(In().ml.users, In().ratings_sl, 0, 0); },
       0x8e91bb956a9301aeull},
      {"join/ratings_movies",
       [] { return df::HashJoin(In().ratings_sl, In().ml.movies, 1, 0); },
       0x642fd6491d1ddd6dull},
      {"join/string_key_duplicates",
       [] {
         const DataFrame& m = In().ml.movies;
         std::vector<DataFrame> twice = {m.Slice(10, 60), m.Slice(30, 50)};
         return df::HashJoin(m.Slice(5, 100), DataFrame::Concat(twice), 1, 1);
       },
       0x5fd5e12b4e15546bull},
      {"join/double_key",
       [] {
         DataFrame right = DataFrame::Make(
             {"rating", "label"},
             {Column::Doubles({2.0, 4.0, 2.0, 9.0}), Column::Ints({20, 40, 21, 90})});
         return df::HashJoin(In().ratings_sl, right, 2, 0);
       },
       0xfa47cb07cd590e55ull},
      {"join/empty_left",
       [] { return df::HashJoin(In().ml.ratings.Slice(9, 9), In().ml.users, 0, 0); },
       0x68e53ab2abfc02eaull},

      // --- Per-batch shapes ---
      {"batch/lesl_pieces_sum", [] { return LeslPieces(df::kAggSum); }, 0x69f8bca77a390f9cull},
      {"batch/lesl_pieces_count", [] { return LeslPieces(df::kAggCount); }, 0xb1643068e17f1a1full},
      {"batch/lesl_pieces_mean", [] { return LeslPieces(df::kAggMean); }, 0x5564b1aefa0f8a63ull},
      {"batch/lesl_pieces_min", [] { return LeslPieces(df::kAggMin); }, 0xbe9aa4fd7374f7ceull},
      {"batch/lesl_pieces_max", [] { return LeslPieces(df::kAggMax); }, 0xd252ce623d5c894full},
      {"batch/lesl_reagg_sum",
       [] { return df::ReAggregate(LeslPieces(df::kAggSum), 2, df::kAggSum); },
       0x401fbfc26326e4d9ull},
      {"batch/lesl_reagg_mean",
       [] { return df::ReAggregate(LeslPieces(df::kAggMean), 2, df::kAggMean); },
       0x7212c8812dbef7ddull},
      {"batch/ratings_piece_join_users",
       [] { return df::HashJoin(Batch().ratings_piece, Batch().ml.users, 0, 0); },
       0xbb133456eea15d2full},
      {"batch/ratings_piece_join_groupby_mean",
       [] {
         DataFrame joined = df::HashJoin(Batch().ratings_piece, Batch().ml.users, 0, 0);
         return df::GroupByAgg(joined, 1, 3, 2, df::kAggMean);
       },
       0xe26e9bdf28801ddeull},

      // --- String kernels: tricky strings, slices and concatenations ---
      {"str/kernels", [] { return StringKernels(In().tricky.col("s")); }, 0xb0b79a9786f81304ull},
      {"str/kernels_sliced",
       [] { return StringKernels(In().tricky_sl.col("s")); },
       0x90164db785313a6full},
      {"str/kernels_babies_sliced",
       [] { return StringKernels(In().babies_sl.col("name")); },
       0xcec423017e576beeull},
      {"str/kernels_concat_of_slices",
       [] {
         const Column& s = In().tricky.col("s");
         std::vector<Column> parts = {s.Slice(3, 50), s.Slice(0, 0), s.Slice(40, 700),
                                      s.Slice(1, 2), s.Slice(900, 1524)};
         return StringKernels(Column::Concat(parts));
       },
       0x6c250bc59022a6faull},
      {"str/concat_frames_of_slices",
       [] {
         const DataFrame& f = In().tricky_sl;
         std::vector<DataFrame> parts = {f.Slice(100, 300), f.Slice(7, 7), f.Slice(0, 150),
                                         In().tricky.Slice(1500, 1524)};
         return DataFrame::Concat(parts);
       },
       0x52eaf94d56ef3b93ull},
      {"str/concat_empty_strings",
       [] {
         std::vector<Column> parts = {Column::Strings({"", ""}), Column::Strings({}),
                                      Column::Strings({"", "a", ""}).Slice(1, 3)};
         return DataFrame::Make({"s"}, {Column::Concat(parts)});
       },
       0x4ac92a761354a91cull},
      {"str/to_double_special",
       [] {
         const std::vector<std::string> in = {
             " 1.5", "+2", "0x1p3", "1e-400", "1e400", "inf", "nan", "", "12abc", "-0",
             " ", "1.5 ", "\t3", "\n-4.25", "NaN(123)", "-inf", "infinity", "INF", "1e-310",
             "4.9e-324", "0x1p-1074", "1e308", "2e308", "-1e400", ".5", "5.", "e5", "1,5",
             "0x", "0x1.8p1", "1e", "--1", "+-1", "1e+2", "9007199254740993",
             std::string("12\0", 3), std::string("\0" "1", 2), "\xd9\xa1", "00012",
             "1.000000000000000000000000000001", "0.1e-320"};
         return DataFrame::Make({"x"}, {df::StrToDouble(Column::Strings(in))});
       },
       0x47a4d91b6472bcadull},
      {"str/filter_take",
       [] {
         const DataFrame& f = In().tricky;
         return df::FilterRows(f, df::StrContains(f.col("s"), "e"));
       },
       0xbd14ad9119021947ull},
      {"str/filter_take_sliced",
       [] {
         const DataFrame& f = In().tricky_sl;
         return df::FilterRows(f, df::StrIsNumeric(df::StrRemoveChar(f.col("s"), '-')));
       },
       0x462d9b25df22b25dull},
      {"str/sort",
       [] { return df::SortByKeys(In().tricky_sl, 1); },
       0x8147a6e462a5a358ull},
      {"str/groupby_sum",
       [] { return df::GroupByAgg(In().tricky, 0, -1, 2, df::kAggSum); },
       0xfe7244936dccbd30ull},
      {"str/groupby_two_keys_sliced",
       [] { return df::GroupByAgg(In().tricky_sl, 1, 0, 2, df::kAggMean); },
       0xd256e71f1c37cbbaull},
      {"str/groupby_max_sliced",
       [] { return df::GroupByAgg(In().tricky_sl, 0, 1, 2, df::kAggMax); },
       0x98c6dd4cf5e25966ull},
      {"str/reagg_sum",
       [] { return df::ReAggregate(Partials(In().tricky, 0, -1, 2, df::kAggSum), 1, df::kAggSum); },
       0x4975282611284eccull},
      {"str/reagg_two_keys_min_sliced",
       [] {
         DataFrame p = Partials(In().tricky_sl, 0, 1, 2, df::kAggMin);
         return df::ReAggregate(p.Slice(3, p.num_rows() - 2), 2, df::kAggMin);
       },
       0xf7befd9d9d92eb0ull},
      {"str/join",
       [] {
         // Duplicate build keys, empty and NUL-containing keys; keys that
         // share a prefix up to a NUL must not match.
         const DataFrame& f = In().tricky;
         return df::HashJoin(In().tricky_sl.Slice(0, 400), f.Slice(0, 300), 0, 0);
       },
       0x1c19be5c1318f341ull},

      // --- SortByKeys (stable) ---
      {"sort/groupby_year_gender",
       [] { return df::SortByKeys(df::GroupByAgg(In().babies, 1, 2, 3, df::kAggSum), 2); },
       0xa8599b9e5fe1f6c1ull},
      {"sort/babies_sliced_name_year",
       [] { return df::SortByKeys(In().babies_sl, 2); },
       0xaccf7f62ccf4c414ull},
      {"sort/ratings_sliced_rating",
       [] {
         const DataFrame& f = In().ratings_sl;
         std::vector<int> cols = {2, 0, 1};
         return df::SortByKeys(f.Select(cols), 1);
       },
       0x11bb1958eed173aaull},
      {"sort/cities_population",
       [] {
         const DataFrame& f = In().cities_sl;
         std::vector<int> cols = {1, 0, 2};
         return df::SortByKeys(f.Select(cols), 1);
       },
       0xb09fcc26fc962db6ull},
  };
  return cases;
}

TEST(KernelIdentity, OutputBytesMatchGoldenDigests) {
  for (const Case& c : Cases()) {
    std::uint64_t got = Digest(c.run());
    EXPECT_EQ(got, c.digest) << c.name << ": got 0x" << std::hex << got << "ull";
  }
}

// NaN and out-of-range double keys have no int64 image; they all map to one
// explicit sentinel key (INT64_MIN) and so fall into a single group.
TEST(KernelIdentity, NonFiniteDoubleKeysShareOneGroup) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Sum of the group whose key column `key` at that row satisfies `pick`.
  auto sum_where = [](const DataFrame& g, const char* key, auto pick) {
    for (long r = 0; r < g.num_rows(); ++r) {
      if (pick(g.col(key).d(r))) {
        return g.col("sum").d(r);
      }
    }
    return -1.0;
  };
  auto is_nan = [](double k) { return std::isnan(k); };

  DataFrame f = DataFrame::Make(
      {"k", "v"}, {Column::Doubles({nan, 1e300, 2.5, -1e300, nan, 2.5}),
                   Column::Doubles({1.0, 2.0, 3.0, 4.0, 5.0, 6.0})});
  DataFrame g = df::GroupByAgg(f, 0, -1, 1, df::kAggSum);
  ASSERT_EQ(g.num_rows(), 2);
  // A group's key is its first row's key, so the sentinel group shows NaN.
  EXPECT_DOUBLE_EQ(sum_where(g, "k", is_nan), 12.0);
  EXPECT_DOUBLE_EQ(sum_where(g, "k", [](double k) { return k == 2.5; }), 9.0);

  // The same holds on the two-key and re-aggregation paths.
  DataFrame f2 = DataFrame::Make(
      {"a", "b", "v"}, {Column::Ints({7, 7, 7, 7}), Column::Doubles({-1e300, nan, 1e300, 0.5}),
                        Column::Doubles({1.0, 2.0, 4.0, 8.0})});
  DataFrame g2 = df::GroupByAgg(f2, 0, 1, 2, df::kAggSum);
  ASSERT_EQ(g2.num_rows(), 2);
  std::vector<DataFrame> twice = {g2, g2};
  DataFrame r2 = df::ReAggregate(DataFrame::Concat(twice), 2, df::kAggSum);
  ASSERT_EQ(r2.num_rows(), 2);
  EXPECT_DOUBLE_EQ(sum_where(r2, "b", [](double k) { return k == -1e300; }), 14.0);
  EXPECT_DOUBLE_EQ(sum_where(r2, "b", [](double k) { return k == 0.5; }), 16.0);

  // And on the join path: the 1e300 build key meets NaN and ±1e300 probes.
  DataFrame right = DataFrame::Make({"k", "tag"}, {Column::Doubles({1e300}), Column::Ints({42})});
  EXPECT_EQ(df::HashJoin(f, right, 0, 0).num_rows(), 4);
}

}  // namespace
