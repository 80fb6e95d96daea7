// DataFrame kernel audit: the cost of every df:: kernel in ns per input row,
// next to a memcpy floor over the same input bytes.
//
// Each kernel runs over the same 2 Mi-row inputs twice: once as consecutive
// 16 Ki-row slices (the size Mozart's batches take, so inputs stay in cache)
// and once over the whole input. The floor copies the bytes the kernel reads
// per row (8 per numeric value, one std::string header per string) with
// memcpy, cut the same way. A kernel far above its floor does per-row work
// beyond moving its data; that is where a library fix can pay.
//
// Emits MOZART_BENCH_JSON rows (bench "df_kernels", workload = kernel,
// config = "batch16k" or "whole"): ns_per_row, memcpy_ns_per_row, x_floor.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dataframe/ops.h"
#include "workloads/data_gen.h"

namespace {

using df::Column;
using df::DataFrame;

constexpr long kBatchRows = 16 * 1024;
constexpr long kStringBytes = static_cast<long>(sizeof(std::string));

long g_sink = 0;
void Sink(const Column& c) { g_sink += c.size(); }
void Sink(const DataFrame& f) { g_sink += f.num_rows(); }
void Sink(double x) { g_sink += x > 0 ? 1 : 0; }

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
  std::vector<long> selection;
  for (long r = 0; r < rows; ++r) {
    if (lesl.i64(r) != 0) {
      selection.push_back(r);
    }
  }

  auto col = [](const Column& c, long r0, long r1) { return c.Slice(r0, r1); };
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
      {"StrStartsWith", kStringBytes,
       [&](long a, long b) { Sink(df::StrStartsWith(col(names, a, b), "Lesl")); }},
      {"StrContains", kStringBytes,
       [&](long a, long b) { Sink(df::StrContains(col(names, a, b), "sl")); }},
      {"StrSlice", kStringBytes, [&](long a, long b) { Sink(df::StrSlice(col(names, a, b), 0, 3)); }},
      {"StrRemoveChar", kStringBytes,
       [&](long a, long b) { Sink(df::StrRemoveChar(col(names, a, b), 'e')); }},
      {"StrIsNumeric", kStringBytes, [&](long a, long b) { Sink(df::StrIsNumeric(col(zips, a, b))); }},
      {"StrLen", kStringBytes, [&](long a, long b) { Sink(df::StrLen(col(names, a, b))); }},
      {"StrWhere", 8 + kStringBytes,
       [&](long a, long b) { Sink(df::StrWhere(col(lesl, a, b), col(names, a, b), "x")); }},
      {"StrToDouble", kStringBytes, [&](long a, long b) { Sink(df::StrToDouble(col(zips, a, b))); }},
      {"IntToDouble", 8,
       [&](long a, long b) { Sink(df::IntToDouble(col(babies.col("year"), a, b))); }},
      {"ColSum", 8, [&](long a, long b) { Sink(df::ColSum(col(births, a, b))); }},
      {"ColMin", 8, [&](long a, long b) { Sink(df::ColMin(col(births, a, b))); }},
      {"ColMax", 8, [&](long a, long b) { Sink(df::ColMax(col(births, a, b))); }},
      {"ColCount", 8, [&](long a, long b) { Sink(df::ColCount(col(births, a, b))); }},
      {"ColFromFrame", 8, [&](long a, long b) { Sink(df::ColFromFrame(babies.Slice(a, b), 3)); }},
      {"WithColumn", 8,
       [&](long a, long b) { Sink(df::WithColumn(babies.Slice(a, b), "x", col(births, a, b))); }},
      {"Take", 8,
       [&](long a, long b) {
         auto lo = std::lower_bound(selection.begin(), selection.end(), a);
         auto hi = std::lower_bound(lo, selection.end(), b);
         std::vector<long> rel(lo, hi);
         for (long& r : rel) {
           r -= a;
         }
         Sink(col(births, a, b).Take(rel));
       }},
      {"Concat", 8,
       [&](long a, long b) {
         long mid = a + (b - a) / 2;
         std::vector<Column> parts = {col(births, a, mid), col(births, mid, b)};
         Sink(Column::Concat(parts));
       }},
      {"FilterRows", kStringBytes + 32,
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
  bench::Note("(sink " + std::to_string(g_sink) + ")");
  return 0;
}
