// DataFrame kernel audit: the cost of every df:: kernel in ns per input row,
// next to a memcpy floor over the same input bytes.
//
// Each kernel runs over the same 2 Mi-row inputs twice: once as consecutive
// 16 Ki-row slices (the size Mozart's batches take, so inputs stay in cache)
// and once over the whole input. The floor copies the bytes the kernel reads
// per row (8 per numeric value; per string, its 8-byte offset plus the
// column's mean payload length) with memcpy, cut the same way. A kernel far
// above its floor does per-row work beyond moving its data; that is where a
// library fix can pay.
//
// A second table times the hash kernels at the shapes Mozart calls them, one
// call per batch: Birth Analysis' GroupByAgg on the Lesl-filtered births in
// 2.25k-row pieces, and MovieLens' HashJoin against `users` and GroupByAgg
// over 33 slices. Each shows its microseconds per call and its per-row cost
// as a multiple of the same kernel's whole-input per-row cost, in one
// process. A third table times the group order (HashMapOrder) against
// building the std::unordered_map it reproduces, interleaved.
//
// Emits MOZART_BENCH_JSON rows (bench "df_kernels", workload = kernel,
// config = "batch16k" or "whole"): ns_per_row, memcpy_ns_per_row, x_floor;
// per shape (workload = "<kernel>/<shape>", config = "per_batch"):
// us_per_call, whole_us_per_call, x_whole, total_ms, whole_ms; per key set
// (workload = "HashMapOrder/<keys>", config = "replay" or "unordered_map"):
// ns_per_key, plus x_map under "replay".
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "dataframe/hash_keys.h"
#include "dataframe/ops.h"
#include "workloads/data_gen.h"

namespace {

using df::Column;
using df::DataFrame;

constexpr long kBatchRows = 16 * 1024;

long g_sink = 0;
void Sink(const Column& c) { g_sink += c.size(); }
void Sink(const DataFrame& f) { g_sink += f.num_rows(); }
void Sink(double x) { g_sink += x > 0 ? 1 : 0; }

// Bytes a kernel reads per row of string column c: one offset plus the mean
// payload.
long StringBytes(const Column& c) {
  long payload = 0;
  for (long r = 0; r < c.size(); ++r) {
    payload += static_cast<long>(c.str(r).size());
  }
  return 8 + (c.empty() ? 0 : (payload + c.size() / 2) / c.size());
}

struct Kernel {
  const char* name;
  long bytes_per_row;                        // input bytes read per row
  std::function<void(long r0, long r1)> run;  // runs over input rows [r0, r1)
};

// Median time of fn over all `rows`, cut into `batch`-row pieces, in ns/row.
double NsPerRow(const std::function<void(long, long)>& fn, long rows, long batch) {
  double s = bench::TimeSeconds([&] {
    for (long r0 = 0; r0 < rows; r0 += batch) {
      fn(r0, std::min(rows, r0 + batch));
    }
  });
  return s * 1e9 / static_cast<double>(rows);
}

// Per-batch calls of one kernel over a frame of `rows` rows, cut into
// `pieces` slices, against one call over the whole frame.
struct Shape {
  const char* name;
  long rows;
  long pieces;
  std::function<void(long r0, long r1)> run;
};

void PerBatchTable(const std::vector<Shape>& shapes) {
  std::printf("  %-24s %7s %6s  %11s %11s %7s  %10s %10s\n", "kernel/shape", "rows", "calls",
              "us/call", "whole us", "x whole", "total ms", "whole ms");
  for (const Shape& s : shapes) {
    const long piece = (s.rows + s.pieces - 1) / s.pieces;
    const long calls = (s.rows + piece - 1) / piece;
    const double batch_ns = NsPerRow(s.run, s.rows, piece);
    const double whole_ns = NsPerRow(s.run, s.rows, s.rows);
    const double rows_per_call = static_cast<double>(s.rows) / static_cast<double>(calls);
    const double us_per_call = batch_ns * rows_per_call / 1e3;
    const double whole_us = whole_ns * rows_per_call / 1e3;
    const double x_whole = whole_ns > 0 ? batch_ns / whole_ns : 0.0;
    const double total_ms = batch_ns * static_cast<double>(s.rows) / 1e6;
    const double whole_ms = whole_ns * static_cast<double>(s.rows) / 1e6;
    std::printf("  %-24s %7ld %6ld  %11.1f %11.1f %7.2f  %10.2f %10.2f\n", s.name, piece, calls,
                us_per_call, whole_us, x_whole, total_ms, whole_ms);
    bench::Metric("df_kernels", s.name, "per_batch", "us_per_call", us_per_call);
    bench::Metric("df_kernels", s.name, "per_batch", "whole_us_per_call", whole_us);
    bench::Metric("df_kernels", s.name, "per_batch", "x_whole", x_whole);
    bench::Metric("df_kernels", s.name, "per_batch", "total_ms", total_ms);
    bench::Metric("df_kernels", s.name, "per_batch", "whole_ms", whole_ms);
  }
}

// The distinct (c0, c1) keys of `frame` in first-occurrence order.
std::vector<df::internal::NumKey> DistinctKeys(const DataFrame& frame, int c0, int c1) {
  std::unordered_set<df::internal::NumKey, df::internal::KeyHash> seen;
  std::vector<df::internal::NumKey> keys;
  for (long r = 0; r < frame.num_rows(); ++r) {
    df::internal::NumKey k{frame.col(c0).i64(r), frame.col(c1).i64(r)};
    if (seen.insert(k).second) {
      keys.push_back(k);
    }
  }
  return keys;
}

// The order HashMapOrder reproduces, from the map itself.
std::vector<long> MapOrder(const std::vector<df::internal::NumKey>& keys) {
  std::unordered_map<df::internal::NumKey, long, df::internal::KeyHash> map;
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

// HashMapOrder against MapOrder on each key set, alternating the two over
// rounds and taking each one's median.
using KeySet = std::pair<const char*, std::vector<df::internal::NumKey>>;

void OrderTable(const std::vector<KeySet>& sets) {
  std::printf("  %-24s %7s  %12s %12s %8s  %s\n", "keys", "count", "replay ns/k", "map ns/k",
              "x map", "same order");
  for (const auto& [name, keys] : sets) {
    const long n = std::max<long>(1, static_cast<long>(keys.size()));
    const long repeat = std::max<long>(1, 200'000 / n);  // ~0.2M keys per timing
    auto time = [&](auto order_of) {
      return bench::TimeSeconds([&] {
               for (long i = 0; i < repeat; ++i) {
                 g_sink += static_cast<long>(order_of(keys).size());
               }
             }) *
             1e9 / static_cast<double>(repeat * n);
    };
    std::vector<double> replay;
    std::vector<double> map;
    for (int round = 0; round < 9; ++round) {
      replay.push_back(time([](const auto& k) { return df::internal::HashMapOrder(k); }));
      map.push_back(time([](const auto& k) { return MapOrder(k); }));
    }
    std::sort(replay.begin(), replay.end());
    std::sort(map.begin(), map.end());
    const double r = replay[replay.size() / 2];
    const double m = map[map.size() / 2];
    const bool same = df::internal::HashMapOrder(keys) == MapOrder(keys);
    std::printf("  %-24s %7zu  %12.2f %12.2f %8.3f  %s\n", name, keys.size(), r, m,
                m > 0 ? r / m : 0.0, same ? "yes" : "NO");
    const std::string workload = std::string("HashMapOrder/") + name;
    bench::Metric("df_kernels", workload, "replay", "ns_per_key", r);
    bench::Metric("df_kernels", workload, "unordered_map", "ns_per_key", m);
    bench::Metric("df_kernels", workload, "replay", "x_map", m > 0 ? r / m : 0.0);
  }
}

}  // namespace

int main() {
  const long rows = bench::Scaled(2L * 1024 * 1024);
  bench::Title("DataFrame kernels: ns per row vs a memcpy floor (" + std::to_string(rows) +
               " rows)");

  // Inputs: baby names (string, int, int, double), dirty ZIP strings, and a
  // ratings/users pair for the join.
  const DataFrame babies = workloads::MakeBabyNames(rows, 1);
  const Column zips = workloads::Make311Requests(rows, 2).col("incident_zip");
  const workloads::MovieLensTables ml = workloads::MakeMovieLens(rows, 8192, 4096, 3);
  const Column& names = babies.col("name");
  const Column& births = babies.col("births");
  const Column other = df::ColAddC(births, 1.0);
  const Column lesl = df::StrStartsWith(names, "Lesl");
  const Column big = df::ColGtC(births, 1000.0);
  const DataFrame partials = babies.Select(std::vector<int>{1, 2, 3});
  const long name_bytes = StringBytes(names);
  const long zip_bytes = StringBytes(zips);
  std::vector<long> selection;
  for (long r = 0; r < rows; ++r) {
    if (lesl.i64(r) != 0) {
      selection.push_back(r);
    }
  }

  auto col = [](const Column& c, long r0, long r1) { return c.Slice(r0, r1); };
  // The selected rows in [a, b), relative to a.
  auto selected = [&](long a, long b) {
    auto lo = std::lower_bound(selection.begin(), selection.end(), a);
    auto hi = std::lower_bound(lo, selection.end(), b);
    std::vector<long> rel(lo, hi);
    for (long& r : rel) {
      r -= a;
    }
    return rel;
  };
  auto halves = [&](const Column& c, long a, long b) {
    long mid = a + (b - a) / 2;
    std::vector<Column> parts = {col(c, a, mid), col(c, mid, b)};
    return Column::Concat(parts);
  };
  const std::vector<Kernel> kernels = {
      {"ColAdd", 16, [&](long a, long b) { Sink(df::ColAdd(col(births, a, b), col(other, a, b))); }},
      {"ColSub", 16, [&](long a, long b) { Sink(df::ColSub(col(births, a, b), col(other, a, b))); }},
      {"ColMul", 16, [&](long a, long b) { Sink(df::ColMul(col(births, a, b), col(other, a, b))); }},
      {"ColDiv", 16, [&](long a, long b) { Sink(df::ColDiv(col(births, a, b), col(other, a, b))); }},
      {"ColAddC", 8, [&](long a, long b) { Sink(df::ColAddC(col(births, a, b), 2.0)); }},
      {"ColMulC", 8, [&](long a, long b) { Sink(df::ColMulC(col(births, a, b), 2.0)); }},
      {"ColDivC", 8, [&](long a, long b) { Sink(df::ColDivC(col(births, a, b), 2.0)); }},
      {"ColGtC", 8, [&](long a, long b) { Sink(df::ColGtC(col(births, a, b), 1000.0)); }},
      {"ColLtC", 8, [&](long a, long b) { Sink(df::ColLtC(col(births, a, b), 1000.0)); }},
      {"ColGeC", 8, [&](long a, long b) { Sink(df::ColGeC(col(births, a, b), 1000.0)); }},
      {"ColEqC", 8, [&](long a, long b) { Sink(df::ColEqC(col(births, a, b), 1000.0)); }},
      {"MaskAnd", 16, [&](long a, long b) { Sink(df::MaskAnd(col(lesl, a, b), col(big, a, b))); }},
      {"MaskOr", 16, [&](long a, long b) { Sink(df::MaskOr(col(lesl, a, b), col(big, a, b))); }},
      {"MaskNot", 8, [&](long a, long b) { Sink(df::MaskNot(col(lesl, a, b))); }},
      {"ColIsNaN", 8, [&](long a, long b) { Sink(df::ColIsNaN(col(births, a, b))); }},
      {"ColFillNaN", 8, [&](long a, long b) { Sink(df::ColFillNaN(col(births, a, b), 0.0)); }},
      {"ColWhere", 16,
       [&](long a, long b) { Sink(df::ColWhere(col(big, a, b), col(births, a, b), 0.0)); }},
      {"StrStartsWith", name_bytes,
       [&](long a, long b) { Sink(df::StrStartsWith(col(names, a, b), "Lesl")); }},
      {"StrContains", name_bytes,
       [&](long a, long b) { Sink(df::StrContains(col(names, a, b), "sl")); }},
      {"StrSlice", name_bytes, [&](long a, long b) { Sink(df::StrSlice(col(names, a, b), 0, 3)); }},
      {"StrRemoveChar", name_bytes,
       [&](long a, long b) { Sink(df::StrRemoveChar(col(names, a, b), 'e')); }},
      {"StrIsNumeric", zip_bytes, [&](long a, long b) { Sink(df::StrIsNumeric(col(zips, a, b))); }},
      {"StrLen", 8, [&](long a, long b) { Sink(df::StrLen(col(names, a, b))); }},
      {"StrWhere", 8 + name_bytes,
       [&](long a, long b) { Sink(df::StrWhere(col(lesl, a, b), col(names, a, b), "x")); }},
      {"StrToDouble", zip_bytes, [&](long a, long b) { Sink(df::StrToDouble(col(zips, a, b))); }},
      {"IntToDouble", 8,
       [&](long a, long b) { Sink(df::IntToDouble(col(babies.col("year"), a, b))); }},
      {"ColSum", 8, [&](long a, long b) { Sink(df::ColSum(col(births, a, b))); }},
      {"ColMin", 8, [&](long a, long b) { Sink(df::ColMin(col(births, a, b))); }},
      {"ColMax", 8, [&](long a, long b) { Sink(df::ColMax(col(births, a, b))); }},
      {"ColCount", 8, [&](long a, long b) { Sink(df::ColCount(col(births, a, b))); }},
      {"ColFromFrame", 8, [&](long a, long b) { Sink(df::ColFromFrame(babies.Slice(a, b), 3)); }},
      {"WithColumn", 8,
       [&](long a, long b) { Sink(df::WithColumn(babies.Slice(a, b), "x", col(births, a, b))); }},
      {"Take", 8, [&](long a, long b) { Sink(col(births, a, b).Take(selected(a, b))); }},
      {"TakeStr", name_bytes,
       [&](long a, long b) { Sink(col(names, a, b).Take(selected(a, b))); }},
      {"Concat", 8, [&](long a, long b) { Sink(halves(births, a, b)); }},
      {"ConcatStr", name_bytes, [&](long a, long b) { Sink(halves(names, a, b)); }},
      {"FilterRows", name_bytes + 32,
       [&](long a, long b) { Sink(df::FilterRows(babies.Slice(a, b), col(lesl, a, b))); }},
      {"GroupByAgg", 24,
       [&](long a, long b) { Sink(df::GroupByAgg(babies.Slice(a, b), 1, 2, 3, df::kAggSum)); }},
      {"ReAggregate", 24,
       [&](long a, long b) { Sink(df::ReAggregate(partials.Slice(a, b), 2, df::kAggSum)); }},
      {"HashJoin", 24,
       [&](long a, long b) { Sink(df::HashJoin(ml.ratings.Slice(a, b), ml.users, 0, 0)); }},
      {"SortByKeys", 24,
       [&](long a, long b) { Sink(df::SortByKeys(partials.Slice(a, b), 2)); }},
  };

  long max_bpr = 0;
  for (const Kernel& k : kernels) {
    max_bpr = std::max(max_bpr, k.bytes_per_row);
  }
  std::vector<char> src(static_cast<std::size_t>(rows * max_bpr), 1);
  std::vector<char> dst(src.size());

  std::printf("  %-14s %5s  %12s %10s %8s  %12s %10s %8s\n", "kernel", "B/row", "batch ns/row",
              "floor", "x floor", "whole ns/row", "floor", "x floor");
  for (const Kernel& k : kernels) {
    auto copy = [&](long a, long b) {
      std::memcpy(dst.data() + a * k.bytes_per_row, src.data() + a * k.bytes_per_row,
                  static_cast<std::size_t>((b - a) * k.bytes_per_row));
    };
    std::printf("  %-14s %5ld", k.name, k.bytes_per_row);
    for (const auto& [config, batch] : {std::pair<const char*, long>{"batch16k", kBatchRows},
                                        std::pair<const char*, long>{"whole", rows}}) {
      double ns = NsPerRow(k.run, rows, batch);
      double floor = NsPerRow(copy, rows, batch);
      double ratio = floor > 0 ? ns / floor : 0.0;
      std::printf("  %12.2f %10.2f %8.1f", ns, floor, ratio);
      bench::Metric("df_kernels", k.name, config, "ns_per_row", ns);
      bench::Metric("df_kernels", k.name, config, "memcpy_ns_per_row", floor);
      bench::Metric("df_kernels", k.name, config, "x_floor", ratio);
    }
    std::printf("\n");
  }

  // Birth Analysis (fig4g) calls GroupByAgg once per 2.25k-row batch of the
  // Lesl-filtered births (140 year/gender groups); MovieLens (fig4h) calls
  // HashJoin against the whole `users` table and GroupByAgg on the joined
  // rows once per each of 33 batches, as perfbench and fig4_pandas do.
  bench::Title("Per-batch calls at Mozart's batch shapes, against the whole-input rate");
  const DataFrame lesl_births = df::FilterRows(babies, lesl);
  const workloads::MovieLensTables movielens =
      workloads::MakeMovieLens(rows, rows / 50 + 10, rows / 100 + 10, 4);
  const DataFrame joined = df::HashJoin(movielens.ratings, movielens.users, 0, 0);
  const long lesl_rows = lesl_births.num_rows();
  PerBatchTable({
      {"GroupByAgg/births_lesl", lesl_rows, (lesl_rows + 2249) / 2250,
       [&](long a, long b) {
         Sink(df::GroupByAgg(lesl_births.Slice(a, b), 1, 2, 3, df::kAggSum));
       }},
      {"HashJoin/movielens", movielens.ratings.num_rows(), 33,
       [&](long a, long b) {
         Sink(df::HashJoin(movielens.ratings.Slice(a, b), movielens.users, 0, 0));
       }},
      {"GroupByAgg/movielens", joined.num_rows(), 33,
       [&](long a, long b) { Sink(df::GroupByAgg(joined.Slice(a, b), 1, 3, 2, df::kAggMean)); }},
  });

  bench::Title("Group order: HashMapOrder against building the std::unordered_map");
  const DataFrame first_batch = joined.Slice(0, (joined.num_rows() + 32) / 33);
  OrderTable({{"births_lesl", DistinctKeys(lesl_births, 1, 2)},
              {"movielens_batch", DistinctKeys(first_batch, 1, 3)},
              {"movielens", DistinctKeys(joined, 1, 3)}});
  bench::Note("(sink " + std::to_string(g_sink) + ")");
  return 0;
}
