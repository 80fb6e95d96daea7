// Byte-identity golden test for the row-materializing DataFrame kernels.
//
// Every case runs one kernel (FilterRows, GroupByAgg, ReAggregate, HashJoin,
// SortByKeys, and the branchless MaskAnd, MaskOr and ColWhere) over seeded
// synthetic frames and folds every output byte into an FNV-1a digest: column
// names, column types, row count and each value's bytes in row order.
// Group-by and join outputs are digested as produced, *not* canonicalized,
// so the digests also pin hash-table group order. A kernel rewrite must
// reproduce these digests exactly; a mismatch prints the new digest in the
// same form as the table below.
//
// Group order follows libstdc++'s std::hash and bucket policy, so the
// digests are specific to that standard library.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

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
  void Str(const std::string& s) {
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
        for (const std::string& s : col.strings()) {
          h.Str(s);
        }
        break;
    }
  }
  return h.value();
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
};

const Inputs& In() {
  static const Inputs inputs;
  return inputs;
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
