// Executor identity guard: a fixed set of pipelines, run over every
// scheduling knob, must produce exactly the bytes the eager (unannotated)
// libraries produce, and — where the batch size is pinned — exactly the
// batch and boundary structure pinned in Expected() below.
//
// Grid per pipeline: dynamic_scheduling × elide_boundaries × pipeline_stages
// × batch ∈ {37, 1000, heuristic} × threads ∈ {1, 4}. Inputs are
// integer-valued doubles, so reductions are exact in any association and
// the output check does not depend on the host's L2 size. The structure
// check skips the heuristic cells (their batch size follows the L2 size)
// and, in dynamic cells with several threads, the carried_recuts counter:
// there, which worker claims which batch is a race, and two producers'
// per-worker piece lists may or may not happen to line up.
//
// When the executor's batch structure changes on purpose, a failing cell
// prints its new Expected() row.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/registry.h"
#include "core/runtime.h"
#include "core/unpack.h"
#include "dataframe/annotated.h"
#include "dataframe/ops.h"
#include "matrix/annotated.h"
#include "matrix/matrix.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

// ---- byte capture ----

void AppendBytes(std::string* out, const void* p, std::size_t n) {
  out->append(static_cast<const char*>(p), n);
}

void AppendDouble(std::string* out, double v) { AppendBytes(out, &v, sizeof v); }

void AppendDoubles(std::string* out, const std::vector<double>& v) {
  AppendBytes(out, v.data(), v.size() * sizeof(double));
}

void AppendFrame(std::string* out, const df::DataFrame& f) {
  const std::int64_t rows = f.num_rows();
  AppendBytes(out, &rows, sizeof rows);
  for (int c = 0; c < f.num_cols(); ++c) {
    out->append(f.names()[static_cast<std::size_t>(c)]);
    out->push_back('\0');
    const df::Column& col = f.col(c);
    if (col.is_double()) {
      AppendBytes(out, col.doubles().data(), col.doubles().size() * sizeof(double));
    } else if (col.is_int()) {
      AppendBytes(out, col.ints().data(), col.ints().size() * sizeof(std::int64_t));
    } else {
      for (long r = 0; r < col.size(); ++r) {
        out->append(col.str(r));
        out->push_back('\0');
      }
    }
  }
}

void AppendMatrix(std::string* out, const matrix::Matrix& m) {
  for (long r = 0; r < m.rows(); ++r) {
    AppendBytes(out, m.row(r), static_cast<std::size_t>(m.cols()) * sizeof(double));
  }
}

// ---- shared inputs ----

std::vector<double> Ints(long n, long mod, double offset = 0.0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<double>(i % mod) + offset;
  }
  return v;
}

// Serial node: forces a stage break without touching the streams around it.
const Annotated<void(long)>& Tick() {
  static long sink = 0;
  static const Annotated<void(long)> tick(
      [](long k) { sink += k; },
      AnnotationBuilder("executor_identity_test.tick").Arg("k", NoSplit()).Build());
  return tick;
}

// An owned vector stream whose pieces re-split (can_subdivide): Split
// copies, Merge concatenates. Two producer stages of it carry aligned piece
// sets into one consumer — the multi-producer reconciliation.
using Vec = std::vector<double>;

void RegisterVecSplit() {
  static const bool done = [] {
    Registry& reg = Registry::Global();
    reg.DefineSplitType(
        "IdentityTestVecSplit",
        [](std::span<const Value> args) -> std::optional<std::vector<std::int64_t>> {
          if (!args[0].has_value()) {
            return std::nullopt;
          }
          return std::vector<std::int64_t>{ValueToInt64(args[0])};
        },
        [](const Value& v) {
          return std::vector<std::int64_t>{static_cast<std::int64_t>(v.As<Vec>().size())};
        });
    RegisterTypedSplitter<Vec>(
        reg, "IdentityTestVecSplit",
        [](const Vec& v, std::span<const std::int64_t> params) {
          return RuntimeInfo{params.empty() ? static_cast<std::int64_t>(v.size()) : params[0],
                             static_cast<std::int64_t>(sizeof(double))};
        },
        [](const Vec& v, std::int64_t start, std::int64_t end, std::span<const std::int64_t>,
           const SplitContext&) {
          return Value::Make<Vec>(Vec(v.begin() + start, v.begin() + end));
        },
        [](const Value&, std::vector<Value> pieces, std::span<const std::int64_t>) {
          Vec out;
          for (Value& p : pieces) {
            const Vec& v = p.As<Vec>();
            out.insert(out.end(), v.begin(), v.end());
          }
          return Value::Make<Vec>(std::move(out));
        },
        SplitterTraits{.can_subdivide = true});
    return true;
  }();
  (void)done;
}

Vec Scale(long n, const Vec& v) {
  Vec out(v);
  for (long i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] *= 2.0;
  }
  return out;
}

Vec Add3(long n, const Vec& a, const Vec& b, const Vec& c) {
  Vec out(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = a[j] + b[j] + c[j];
  }
  return out;
}

Vec Mul2(long n, const Vec& a, const Vec& b) {
  Vec out(static_cast<std::size_t>(n));
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = a[j] * b[j];
  }
  return out;
}

const Annotated<Vec(long, const Vec&)>& VecScale() {
  RegisterVecSplit();
  static const Annotated<Vec(long, const Vec&)> fn(
      Scale, AnnotationBuilder("executor_identity_test.vec_scale")
                 .Arg("size", Split("SizeSplit", {"size"}))
                 .Arg("v", Split("IdentityTestVecSplit", {"size"}))
                 .Returns(Split("IdentityTestVecSplit", {"size"}))
                 .Build());
  return fn;
}

const Annotated<Vec(long, const Vec&, const Vec&, const Vec&)>& VecAdd3() {
  RegisterVecSplit();
  static const Annotated<Vec(long, const Vec&, const Vec&, const Vec&)> fn(
      Add3, AnnotationBuilder("executor_identity_test.vec_add3")
                .Arg("size", Split("SizeSplit", {"size"}))
                .Arg("a", Split("IdentityTestVecSplit", {"size"}))
                .Arg("b", Split("IdentityTestVecSplit", {"size"}))
                .Arg("c", Split("IdentityTestVecSplit", {"size"}))
                .Returns(Split("IdentityTestVecSplit", {"size"}))
                .Build());
  return fn;
}

const Annotated<Vec(long, const Vec&, const Vec&)>& VecMul2() {
  RegisterVecSplit();
  static const Annotated<Vec(long, const Vec&, const Vec&)> fn(
      Mul2, AnnotationBuilder("executor_identity_test.vec_mul2")
                .Arg("size", Split("SizeSplit", {"size"}))
                .Arg("a", Split("IdentityTestVecSplit", {"size"}))
                .Arg("b", Split("IdentityTestVecSplit", {"size"}))
                .Returns(Split("IdentityTestVecSplit", {"size"}))
                .Build());
  return fn;
}

// ---- the pipelines ----

constexpr long kN = 6007;  // not a multiple of any batch or thread count

struct Pipeline {
  const char* name;
  std::function<std::string()> eager;
  std::function<std::string(RuntimeOptions, EvalStats::Snapshot*)> mozart;
};

// Each Mozart pipeline runs on its own runtime and returns its output bytes
// plus the runtime's counters.
template <typename Body>
std::string RunOn(RuntimeOptions opts, EvalStats::Snapshot* stats, Body body) {
  Runtime rt(opts);
  std::string out;
  {
    RuntimeScope scope(&rt);
    body(&rt, &out);
  }
  *stats = rt.stats().Take();
  return out;
}

// A vecmath chain in one stage per call (a three-deep region when
// pipelining is on) whose interior stages read fresh inputs.
Pipeline VecChain() {
  auto inputs = [] {
    return std::array<std::vector<double>, 3>{Ints(kN, 97), Ints(kN, 13, 1.0), Ints(kN, 7)};
  };
  return {"vec_chain",
          [=] {
            auto [a, b, c] = inputs();
            std::vector<double> r(static_cast<std::size_t>(kN));
            vecmath::Add(kN, a.data(), b.data(), r.data());
            vecmath::Mul(kN, r.data(), c.data(), r.data());
            vecmath::Sub(kN, r.data(), a.data(), r.data());
            std::string out;
            AppendDoubles(&out, r);
            return out;
          },
          [=](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            opts.pipeline = false;
            return RunOn(opts, stats, [&](Runtime* rt, std::string* out) {
              auto [a, b, c] = inputs();
              std::vector<double> r(static_cast<std::size_t>(kN));
              mzvec::Add(kN, a.data(), b.data(), r.data());
              mzvec::Mul(kN, r.data(), c.data(), r.data());
              mzvec::Sub(kN, r.data(), a.data(), r.data());
              rt->Evaluate();
              AppendDoubles(out, r);
            });
          }};
}

df::DataFrame MixedFrame(long n) {
  std::vector<std::int64_t> ids(static_cast<std::size_t>(n));
  std::vector<std::string> tags(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    ids[static_cast<std::size_t>(i)] = i;
    tags[static_cast<std::size_t>(i)] = "t" + std::to_string(i % 17);
  }
  return df::DataFrame::Make({"v", "id", "tag"},
                             {df::Column::Doubles(Ints(n, 101)), df::Column::Ints(std::move(ids)),
                              df::Column::Strings(std::move(tags))});
}

// A filter: owned, variable-size pieces concatenated in source order.
Pipeline FilterConcat() {
  return {"filter_concat",
          [] {
            df::DataFrame f = MixedFrame(kN);
            std::string out;
            AppendFrame(&out, df::FilterRows(f, df::ColGtC(f.col(0), 50.5)));
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime*, std::string* out) {
              df::DataFrame f = MixedFrame(kN);
              auto mask = mzdf::ColGtC(mzdf::ColFromFrame(f, 0), 50.5);
              AppendFrame(out, mzdf::FilterRows(f, mask).get());
            });
          }};
}

df::DataFrame KeyedFrame(long n) {
  std::vector<std::int64_t> keys(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] = (i * 7) % 41;
  }
  return df::DataFrame::Make({"k", "v"},
                             {df::Column::Ints(std::move(keys)), df::Column::Doubles(Ints(n, 11))});
}

// A GroupSplit group-by: partial aggregates re-aggregated by the merge.
// Group order is hash-dependent, so both sides are sorted by key.
Pipeline GroupBy() {
  return {"group_by",
          [] {
            std::string out;
            AppendFrame(&out, df::SortByKeys(df::GroupByAgg(KeyedFrame(kN), 0, -1, 1,
                                                            df::kAggSum),
                                             1));
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime*, std::string* out) {
              df::DataFrame f = KeyedFrame(kN);
              AppendFrame(out, df::SortByKeys(
                                   mzdf::GroupByAgg(f, 0, -1, 1, df::kAggSum).get(), 1));
            });
          }};
}

// A ReduceAdd reduction over a product computed in the same stage.
Pipeline ReduceAdd() {
  return {"reduce_add",
          [] {
            std::vector<double> a = Ints(kN, 97);
            std::vector<double> b = Ints(kN, 13, 1.0);
            std::vector<double> t(static_cast<std::size_t>(kN));
            vecmath::Mul(kN, a.data(), b.data(), t.data());
            std::string out;
            AppendDouble(&out, vecmath::Sum(kN, t.data()));
            AppendDoubles(&out, t);
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime*, std::string* out) {
              std::vector<double> a = Ints(kN, 97);
              std::vector<double> b = Ints(kN, 13, 1.0);
              std::vector<double> t(static_cast<std::size_t>(kN));
              mzvec::Mul(kN, a.data(), b.data(), t.data());
              AppendDouble(out, mzvec::Sum(kN, t.data()).get());
              AppendDoubles(out, t);
            });
          }};
}

// Zero-element inputs: a vecmath region that must leave its output alone,
// a column reduction, and a filter that must keep the frame's schema.
Pipeline ZeroElements() {
  return {"zero_elements",
          [] {
            df::DataFrame f = MixedFrame(0);
            std::string out;
            AppendDouble(&out, -1.0);
            AppendDouble(&out, df::ColSum(df::ColMulC(f.col(0), 2.0)));
            AppendFrame(&out, df::FilterRows(f, df::ColGtC(f.col(0), 0.5)));
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            opts.pipeline = false;
            return RunOn(opts, stats, [&](Runtime* rt, std::string* out) {
              std::vector<double> a(1, 4.0);
              std::vector<double> r(1, -1.0);
              mzvec::Sqrt(0, a.data(), r.data());
              mzvec::Sqr(0, r.data(), r.data());
              rt->Evaluate();
              AppendDouble(out, r[0]);
              df::DataFrame f = MixedFrame(0);
              AppendDouble(out, mzdf::ColSum(mzdf::ColMulC(mzdf::ColFromFrame(f, 0), 2.0)).get());
              auto mask = mzdf::ColGtC(mzdf::ColFromFrame(f, 0), 0.5);
              AppendFrame(out, mzdf::FilterRows(f, mask).get());
            });
          }};
}

// Narrow identity producer (one copy) feeding a wide consumer (a chain of
// adds over eight arrays): under the heuristic the consumer's batch is
// several times smaller than the carried pieces, which subdivide.
constexpr long kWideN = 1L << 18;
constexpr int kWide = 8;

Pipeline Subdivide() {
  auto wide = [] {
    std::vector<std::vector<double>> b;
    for (int k = 0; k < kWide; ++k) {
      b.push_back(Ints(kWideN, 5 + k, 1.0));
    }
    return b;
  };
  return {"subdivide",
          [=] {
            std::vector<double> a = Ints(kWideN, 31);
            std::vector<std::vector<double>> b = wide();
            std::vector<double> t(static_cast<std::size_t>(kWideN));
            std::vector<double> o(static_cast<std::size_t>(kWideN));
            vecmath::Copy(kWideN, a.data(), t.data());
            vecmath::Add(kWideN, t.data(), b[0].data(), o.data());
            for (int k = 1; k < kWide; ++k) {
              vecmath::Add(kWideN, o.data(), b[static_cast<std::size_t>(k)].data(), o.data());
            }
            std::string out;
            AppendDoubles(&out, o);
            return out;
          },
          [=](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime* rt, std::string* out) {
              std::vector<double> a = Ints(kWideN, 31);
              std::vector<std::vector<double>> b = wide();
              std::vector<double> t(static_cast<std::size_t>(kWideN));
              std::vector<double> o(static_cast<std::size_t>(kWideN));
              mzvec::Copy(kWideN, a.data(), t.data());
              Tick()(1);
              mzvec::Add(kWideN, t.data(), b[0].data(), o.data());
              for (int k = 1; k < kWide; ++k) {
                mzvec::Add(kWideN, o.data(), b[static_cast<std::size_t>(k)].data(), o.data());
              }
              rt->Evaluate();
              AppendDoubles(out, o);
            });
          }};
}

// Wide owned producer (five live columns) feeding a narrow consumer: under
// the heuristic the carried column pieces coalesce per worker.
Pipeline Coalesce() {
  auto eager_x = [] {
    df::Column a = df::Column::Doubles(Ints(kWideN, 100));
    df::Column b = df::Column::Doubles(Ints(kWideN, 100, 1.0));
    df::Column c = df::Column::Doubles(Ints(kWideN, 100, 2.0));
    return df::ColAdd(df::ColMul(a, b), c);
  };
  return {"coalesce",
          [=] {
            df::Column y = df::ColMulC(eager_x(), 2.0);
            std::string out;
            AppendDouble(&out, df::ColSum(y));
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime*, std::string* out) {
              df::Column a = df::Column::Doubles(Ints(kWideN, 100));
              df::Column b = df::Column::Doubles(Ints(kWideN, 100, 1.0));
              df::Column c = df::Column::Doubles(Ints(kWideN, 100, 2.0));
              auto x = mzdf::ColAdd(mzdf::ColMul(a, b), c);
              Tick()(1);
              AppendDouble(out, mzdf::ColSum(mzdf::ColMulC(x, 2.0)).get());
            });
          }};
}

// Two producer stages carry owned piece sets into one consumer; sets whose
// ranges disagree are re-cut (or materialized) to the template's.
constexpr long kChainN = 1L << 17;

Pipeline MultiProducer() {
  return {"multi_producer",
          [] {
            Vec p = Scale(kChainN, Ints(kChainN, 50));
            Vec q = Add3(kChainN, Ints(kChainN, 3, 1.0), Ints(kChainN, 5, 2.0), Ints(kChainN, 7));
            std::string out;
            AppendDoubles(&out, Mul2(kChainN, p, q));
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime*, std::string* out) {
              Vec a = Ints(kChainN, 50);
              Vec b = Ints(kChainN, 3, 1.0);
              Vec c = Ints(kChainN, 5, 2.0);
              Vec d = Ints(kChainN, 7);
              auto p = VecScale()(kChainN, a);
              Tick()(1);
              auto q = VecAdd3()(kChainN, b, c, d);
              Tick()(2);
              AppendDoubles(out, VecMul2()(kChainN, p, q).get());
            });
          }};
}

// A stencil: RollRows reads its whole source as a Halo operand.
constexpr long kRows = 301;
constexpr long kCols = 8;

matrix::Matrix Filled() {
  matrix::Matrix m(kRows, kCols);
  for (long r = 0; r < kRows; ++r) {
    for (long c = 0; c < kCols; ++c) {
      m.at(r, c) = static_cast<double>((r * kCols + c) % 19);
    }
  }
  return m;
}

Pipeline HaloRoll() {
  return {"halo_roll",
          [] {
            matrix::Matrix a = Filled();
            matrix::Matrix rolled(kRows, kCols);
            matrix::Matrix o(kRows, kCols);
            matrix::MulScalar(&a, 2.0, &a);
            matrix::RollRows(&a, 3, &rolled);
            matrix::Add(&a, &rolled, &o);
            std::string out;
            AppendMatrix(&out, a);
            AppendMatrix(&out, o);
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            return RunOn(opts, stats, [&](Runtime* rt, std::string* out) {
              matrix::Matrix a = Filled();
              matrix::Matrix rolled(kRows, kCols);
              matrix::Matrix o(kRows, kCols);
              mzmat::MulScalar(&a, 2.0, &a);
              mzmat::RollRows(&a, 3, &rolled);
              mzmat::Add(&a, &rolled, &o);
              rt->Evaluate();
              AppendMatrix(out, a);
              AppendMatrix(out, o);
            });
          }};
}

// A stream fed inside a region whose Future stays live: its merge is
// parked on the slot and runs on get().
Pipeline DeferredMerge() {
  return {"deferred_merge",
          [] {
            df::Column base = df::Column::Doubles(Ints(kN, 1000));
            df::Column mid = df::ColMulC(base, 2.0);
            std::string out;
            AppendDouble(&out, df::ColSum(df::ColAddC(mid, 1.0)));
            AppendBytes(&out, mid.doubles().data(), mid.doubles().size() * sizeof(double));
            return out;
          },
          [](RuntimeOptions opts, EvalStats::Snapshot* stats) {
            opts.pipeline = false;
            return RunOn(opts, stats, [&](Runtime*, std::string* out) {
              df::Column base = df::Column::Doubles(Ints(kN, 1000));
              Future<df::Column> mid = mzdf::ColMulC(base, 2.0);
              Future<double> sum = mzdf::ColSum(mzdf::ColAddC(mid, 1.0));
              AppendDouble(out, sum.get());
              df::Column got = mid.get();
              AppendBytes(out, got.doubles().data(), got.doubles().size() * sizeof(double));
            });
          }};
}

// ---- the grid and the pinned structure ----

struct Cell {
  bool dynamic;
  bool elide;
  bool pipeline_stages;
  long batch;  // 0 = heuristic
  int threads;
};

std::vector<Cell> Grid() {
  std::vector<Cell> cells;
  for (bool dynamic : {false, true}) {
    for (bool elide : {false, true}) {
      for (bool stages : {false, true}) {
        for (long batch : {37L, 1000L, 0L}) {
          for (int threads : {1, 4}) {
            cells.push_back({dynamic, elide, stages, batch, threads});
          }
        }
      }
    }
  }
  return cells;
}

std::string CellKey(const char* pipeline, const Cell& c) {
  std::ostringstream os;
  os << pipeline << " d" << c.dynamic << " e" << c.elide << " p" << c.pipeline_stages << " b"
     << c.batch << " t" << c.threads;
  return os.str();
}

// batches, stages, pipeline_regions, boundaries_elided, carry_pieces,
// stages_rebatched, carried_recuts, deferred_merges, footprint_bytes_max.
using Structure = std::array<std::int64_t, 9>;
constexpr std::size_t kCarriedRecuts = 6;

Structure StructureOf(const EvalStats::Snapshot& s) {
  return {s.batches,          s.stages,          s.pipeline_regions,
          s.boundaries_elided, s.carry_pieces,    s.stages_rebatched,
          s.carried_recuts,    s.deferred_merges, s.footprint_bytes_max};
}

std::string StructureRow(const std::string& key, const Structure& s) {
  std::ostringstream os;
  os << "    {\"" << key << "\", {";
  for (std::size_t i = 0; i < s.size(); ++i) {
    os << (i > 0 ? ", " : "") << s[i];
  }
  os << "}},";
  return os.str();
}

const std::map<std::string, Structure>& Expected() {
  static const std::map<std::string, Structure> table = {
    {"vec_chain d0 e0 p0 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d0 e0 p0 b37 t4", {492, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d0 e0 p0 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d0 e0 p0 b1000 t4", {24, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d0 e0 p1 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d0 e0 p1 b37 t4", {492, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d0 e0 p1 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d0 e0 p1 b1000 t4", {24, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d0 e1 p0 b37 t1", {489, 3, 0, 2, 326, 0, 0, 0, 888}},
    {"vec_chain d0 e1 p0 b37 t4", {492, 3, 0, 2, 328, 0, 0, 0, 888}},
    {"vec_chain d0 e1 p0 b1000 t1", {21, 3, 0, 2, 14, 0, 0, 0, 24000}},
    {"vec_chain d0 e1 p0 b1000 t4", {24, 3, 0, 2, 16, 0, 0, 0, 24000}},
    {"vec_chain d0 e1 p1 b37 t1", {489, 3, 1, 2, 326, 0, 0, 0, 888}},
    {"vec_chain d0 e1 p1 b37 t4", {492, 3, 1, 2, 328, 0, 0, 0, 888}},
    {"vec_chain d0 e1 p1 b1000 t1", {21, 3, 1, 2, 14, 0, 0, 0, 24000}},
    {"vec_chain d0 e1 p1 b1000 t4", {24, 3, 1, 2, 16, 0, 0, 0, 24000}},
    {"vec_chain d1 e0 p0 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d1 e0 p0 b37 t4", {489, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d1 e0 p0 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d1 e0 p0 b1000 t4", {21, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d1 e0 p1 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d1 e0 p1 b37 t4", {489, 3, 0, 0, 0, 0, 0, 0, 888}},
    {"vec_chain d1 e0 p1 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d1 e0 p1 b1000 t4", {21, 3, 0, 0, 0, 0, 0, 0, 24000}},
    {"vec_chain d1 e1 p0 b37 t1", {489, 3, 0, 2, 326, 0, 0, 0, 888}},
    {"vec_chain d1 e1 p0 b37 t4", {489, 3, 0, 2, 326, 0, 0, 0, 888}},
    {"vec_chain d1 e1 p0 b1000 t1", {21, 3, 0, 2, 14, 0, 0, 0, 24000}},
    {"vec_chain d1 e1 p0 b1000 t4", {21, 3, 0, 2, 14, 0, 0, 0, 24000}},
    {"vec_chain d1 e1 p1 b37 t1", {489, 3, 1, 2, 326, 0, 0, 0, 888}},
    {"vec_chain d1 e1 p1 b37 t4", {489, 3, 1, 2, 326, 0, 0, 0, 888}},
    {"vec_chain d1 e1 p1 b1000 t1", {21, 3, 1, 2, 14, 0, 0, 0, 24000}},
    {"vec_chain d1 e1 p1 b1000 t4", {21, 3, 1, 2, 14, 0, 0, 0, 24000}},
    {"filter_concat d0 e0 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e0 p0 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e0 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e0 p0 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e0 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e0 p1 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e0 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e0 p1 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e1 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e1 p0 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e1 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e1 p0 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e1 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e1 p1 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d0 e1 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d0 e1 p1 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e0 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e0 p0 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e0 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e0 p0 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e0 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e0 p1 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e0 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e0 p1 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e1 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e1 p0 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e1 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e1 p0 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e1 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e1 p1 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 8288}},
    {"filter_concat d1 e1 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"filter_concat d1 e1 p1 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 224000}},
    {"group_by d0 e0 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e0 p0 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e0 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e0 p0 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e0 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e0 p1 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e0 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e0 p1 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e1 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e1 p0 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e1 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e1 p0 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e1 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e1 p1 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d0 e1 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d0 e1 p1 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e0 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e0 p0 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e0 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e0 p0 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e0 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e0 p1 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e0 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e0 p1 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e1 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e1 p0 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e1 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e1 p0 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e1 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e1 p1 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 592}},
    {"group_by d1 e1 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"group_by d1 e1 p1 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 16000}},
    {"reduce_add d0 e0 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e0 p0 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e0 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e0 p0 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e0 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e0 p1 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e0 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e0 p1 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e1 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e1 p0 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e1 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e1 p0 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e1 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e1 p1 b37 t4", {164, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d0 e1 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d0 e1 p1 b1000 t4", {8, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e0 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e0 p0 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e0 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e0 p0 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e0 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e0 p1 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e0 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e0 p1 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e1 p0 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e1 p0 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e1 p0 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e1 p0 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e1 p1 b37 t1", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e1 p1 b37 t4", {163, 1, 0, 0, 0, 0, 0, 0, 888}},
    {"reduce_add d1 e1 p1 b1000 t1", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"reduce_add d1 e1 p1 b1000 t4", {7, 1, 0, 0, 0, 0, 0, 0, 24000}},
    {"zero_elements d0 e0 p0 b37 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p0 b37 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p0 b1000 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p0 b1000 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p1 b37 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p1 b37 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p1 b1000 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e0 p1 b1000 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d0 e1 p0 b37 t1", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p0 b37 t4", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p0 b1000 t1", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p0 b1000 t4", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p1 b37 t1", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p1 b37 t4", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p1 b1000 t1", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d0 e1 p1 b1000 t4", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e0 p0 b37 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p0 b37 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p0 b1000 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p0 b1000 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p1 b37 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p1 b37 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p1 b1000 t1", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e0 p1 b1000 t4", {8, 8, 0, 0, 0, 0, 0, 0, 112}},
    {"zero_elements d1 e1 p0 b37 t1", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p0 b37 t4", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p0 b1000 t1", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p0 b1000 t4", {8, 8, 0, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p1 b37 t1", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p1 b37 t4", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p1 b1000 t1", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"zero_elements d1 e1 p1 b1000 t4", {8, 8, 3, 4, 4, 0, 0, 2, 112}},
    {"subdivide d0 e0 p0 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d0 e0 p0 b37 t4", {14176, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d0 e0 p0 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d0 e0 p0 b1000 t4", {528, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d0 e0 p1 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d0 e0 p1 b37 t4", {14176, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d0 e0 p1 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d0 e0 p1 b1000 t4", {528, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d0 e1 p0 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 0, 2960}},
    {"subdivide d0 e1 p0 b37 t4", {14176, 3, 0, 1, 7088, 0, 0, 0, 2960}},
    {"subdivide d0 e1 p0 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 0, 80000}},
    {"subdivide d0 e1 p0 b1000 t4", {528, 3, 0, 1, 264, 0, 0, 0, 80000}},
    {"subdivide d0 e1 p1 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 0, 2960}},
    {"subdivide d0 e1 p1 b37 t4", {14176, 3, 0, 1, 7088, 0, 0, 0, 2960}},
    {"subdivide d0 e1 p1 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 0, 80000}},
    {"subdivide d0 e1 p1 b1000 t4", {528, 3, 0, 1, 264, 0, 0, 0, 80000}},
    {"subdivide d1 e0 p0 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d1 e0 p0 b37 t4", {14170, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d1 e0 p0 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d1 e0 p0 b1000 t4", {526, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d1 e0 p1 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d1 e0 p1 b37 t4", {14170, 3, 0, 0, 0, 0, 0, 0, 2960}},
    {"subdivide d1 e0 p1 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d1 e0 p1 b1000 t4", {526, 3, 0, 0, 0, 0, 0, 0, 80000}},
    {"subdivide d1 e1 p0 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 0, 2960}},
    {"subdivide d1 e1 p0 b37 t4", {14170, 3, 0, 1, 7085, 0, 0, 0, 2960}},
    {"subdivide d1 e1 p0 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 0, 80000}},
    {"subdivide d1 e1 p0 b1000 t4", {526, 3, 0, 1, 263, 0, 0, 0, 80000}},
    {"subdivide d1 e1 p1 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 0, 2960}},
    {"subdivide d1 e1 p1 b37 t4", {14170, 3, 0, 1, 7085, 0, 0, 0, 2960}},
    {"subdivide d1 e1 p1 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 0, 80000}},
    {"subdivide d1 e1 p1 b1000 t4", {526, 3, 0, 1, 263, 0, 0, 0, 80000}},
    {"coalesce d0 e0 p0 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d0 e0 p0 b37 t4", {14176, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d0 e0 p0 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d0 e0 p0 b1000 t4", {528, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d0 e0 p1 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d0 e0 p1 b37 t4", {14176, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d0 e0 p1 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d0 e0 p1 b1000 t4", {528, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d0 e1 p0 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 1, 1480}},
    {"coalesce d0 e1 p0 b37 t4", {14176, 3, 0, 1, 7088, 0, 0, 1, 1480}},
    {"coalesce d0 e1 p0 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 1, 40000}},
    {"coalesce d0 e1 p0 b1000 t4", {528, 3, 0, 1, 264, 0, 0, 1, 40000}},
    {"coalesce d0 e1 p1 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 1, 1480}},
    {"coalesce d0 e1 p1 b37 t4", {14176, 3, 0, 1, 7088, 0, 0, 1, 1480}},
    {"coalesce d0 e1 p1 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 1, 40000}},
    {"coalesce d0 e1 p1 b1000 t4", {528, 3, 0, 1, 264, 0, 0, 1, 40000}},
    {"coalesce d1 e0 p0 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d1 e0 p0 b37 t4", {14170, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d1 e0 p0 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d1 e0 p0 b1000 t4", {526, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d1 e0 p1 b37 t1", {14170, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d1 e0 p1 b37 t4", {14170, 3, 0, 0, 0, 0, 0, 0, 1480}},
    {"coalesce d1 e0 p1 b1000 t1", {526, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d1 e0 p1 b1000 t4", {526, 3, 0, 0, 0, 0, 0, 0, 40000}},
    {"coalesce d1 e1 p0 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 1, 1480}},
    {"coalesce d1 e1 p0 b37 t4", {14170, 3, 0, 1, 7085, 0, 0, 1, 1480}},
    {"coalesce d1 e1 p0 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 1, 40000}},
    {"coalesce d1 e1 p0 b1000 t4", {526, 3, 0, 1, 263, 0, 0, 1, 40000}},
    {"coalesce d1 e1 p1 b37 t1", {14170, 3, 0, 1, 7085, 0, 0, 1, 1480}},
    {"coalesce d1 e1 p1 b37 t4", {14170, 3, 0, 1, 7085, 0, 0, 1, 1480}},
    {"coalesce d1 e1 p1 b1000 t1", {526, 3, 0, 1, 263, 0, 0, 1, 40000}},
    {"coalesce d1 e1 p1 b1000 t4", {526, 3, 0, 1, 263, 0, 0, 1, 40000}},
    {"multi_producer d0 e0 p0 b37 t1", {10629, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d0 e0 p0 b37 t4", {10632, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d0 e0 p0 b1000 t1", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d0 e0 p0 b1000 t4", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d0 e0 p1 b37 t1", {10629, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d0 e0 p1 b37 t4", {10632, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d0 e0 p1 b1000 t1", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d0 e0 p1 b1000 t4", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d0 e1 p0 b37 t1", {10629, 5, 0, 2, 7086, 0, 0, 2, 888}},
    {"multi_producer d0 e1 p0 b37 t4", {10632, 5, 0, 2, 7088, 0, 0, 2, 888}},
    {"multi_producer d0 e1 p0 b1000 t1", {396, 5, 0, 2, 264, 0, 0, 2, 24000}},
    {"multi_producer d0 e1 p0 b1000 t4", {396, 5, 0, 2, 264, 0, 0, 2, 24000}},
    {"multi_producer d0 e1 p1 b37 t1", {10629, 5, 0, 2, 7086, 0, 0, 2, 888}},
    {"multi_producer d0 e1 p1 b37 t4", {10632, 5, 0, 2, 7088, 0, 0, 2, 888}},
    {"multi_producer d0 e1 p1 b1000 t1", {396, 5, 0, 2, 264, 0, 0, 2, 24000}},
    {"multi_producer d0 e1 p1 b1000 t4", {396, 5, 0, 2, 264, 0, 0, 2, 24000}},
    {"multi_producer d1 e0 p0 b37 t1", {10629, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d1 e0 p0 b37 t4", {10629, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d1 e0 p0 b1000 t1", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d1 e0 p0 b1000 t4", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d1 e0 p1 b37 t1", {10629, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d1 e0 p1 b37 t4", {10629, 5, 0, 0, 0, 0, 0, 0, 888}},
    {"multi_producer d1 e0 p1 b1000 t1", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d1 e0 p1 b1000 t4", {396, 5, 0, 0, 0, 0, 0, 0, 24000}},
    {"multi_producer d1 e1 p0 b37 t1", {10629, 5, 0, 2, 7086, 0, 0, 2, 888}},
    {"multi_producer d1 e1 p0 b37 t4", {10629, 5, 0, 2, 7086, 0, 1, 2, 888}},
    {"multi_producer d1 e1 p0 b1000 t1", {396, 5, 0, 2, 264, 0, 0, 2, 24000}},
    {"multi_producer d1 e1 p0 b1000 t4", {396, 5, 0, 2, 264, 0, 1, 2, 24000}},
    {"multi_producer d1 e1 p1 b37 t1", {10629, 5, 0, 2, 7086, 0, 0, 2, 888}},
    {"multi_producer d1 e1 p1 b37 t4", {10629, 5, 0, 2, 7086, 0, 1, 2, 888}},
    {"multi_producer d1 e1 p1 b1000 t1", {396, 5, 0, 2, 264, 0, 0, 2, 24000}},
    {"multi_producer d1 e1 p1 b1000 t4", {396, 5, 0, 2, 264, 0, 1, 2, 24000}},
    {"halo_roll d0 e0 p0 b37 t1", {18, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d0 e0 p0 b37 t4", {22, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d0 e0 p0 b1000 t1", {2, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d0 e0 p0 b1000 t4", {8, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d0 e0 p1 b37 t1", {18, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d0 e0 p1 b37 t4", {22, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d0 e0 p1 b1000 t1", {2, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d0 e0 p1 b1000 t4", {8, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d0 e1 p0 b37 t1", {18, 2, 0, 1, 9, 0, 0, 0, 9472}},
    {"halo_roll d0 e1 p0 b37 t4", {22, 2, 0, 1, 11, 0, 0, 0, 9472}},
    {"halo_roll d0 e1 p0 b1000 t1", {2, 2, 0, 1, 1, 0, 0, 0, 77056}},
    {"halo_roll d0 e1 p0 b1000 t4", {8, 2, 0, 1, 4, 0, 0, 0, 19456}},
    {"halo_roll d0 e1 p1 b37 t1", {18, 2, 0, 1, 9, 0, 0, 0, 9472}},
    {"halo_roll d0 e1 p1 b37 t4", {22, 2, 0, 1, 11, 0, 0, 0, 9472}},
    {"halo_roll d0 e1 p1 b1000 t1", {2, 2, 0, 1, 1, 0, 0, 0, 77056}},
    {"halo_roll d0 e1 p1 b1000 t4", {8, 2, 0, 1, 4, 0, 0, 0, 19456}},
    {"halo_roll d1 e0 p0 b37 t1", {18, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d1 e0 p0 b37 t4", {18, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d1 e0 p0 b1000 t1", {2, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d1 e0 p0 b1000 t4", {2, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d1 e0 p1 b37 t1", {18, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d1 e0 p1 b37 t4", {18, 2, 0, 0, 0, 0, 0, 0, 9472}},
    {"halo_roll d1 e0 p1 b1000 t1", {2, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d1 e0 p1 b1000 t4", {2, 2, 0, 0, 0, 0, 0, 0, 77056}},
    {"halo_roll d1 e1 p0 b37 t1", {18, 2, 0, 1, 9, 0, 0, 0, 9472}},
    {"halo_roll d1 e1 p0 b37 t4", {18, 2, 0, 1, 9, 0, 0, 0, 9472}},
    {"halo_roll d1 e1 p0 b1000 t1", {2, 2, 0, 1, 1, 0, 0, 0, 77056}},
    {"halo_roll d1 e1 p0 b1000 t4", {2, 2, 0, 1, 1, 0, 0, 0, 77056}},
    {"halo_roll d1 e1 p1 b37 t1", {18, 2, 0, 1, 9, 0, 0, 0, 9472}},
    {"halo_roll d1 e1 p1 b37 t4", {18, 2, 0, 1, 9, 0, 0, 0, 9472}},
    {"halo_roll d1 e1 p1 b1000 t1", {2, 2, 0, 1, 1, 0, 0, 0, 77056}},
    {"halo_roll d1 e1 p1 b1000 t4", {2, 2, 0, 1, 1, 0, 0, 0, 77056}},
    {"deferred_merge d0 e0 p0 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d0 e0 p0 b37 t4", {492, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d0 e0 p0 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d0 e0 p0 b1000 t4", {24, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d0 e0 p1 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d0 e0 p1 b37 t4", {492, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d0 e0 p1 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d0 e0 p1 b1000 t4", {24, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d0 e1 p0 b37 t1", {489, 3, 0, 2, 326, 0, 0, 1, 592}},
    {"deferred_merge d0 e1 p0 b37 t4", {492, 3, 0, 2, 328, 0, 0, 1, 592}},
    {"deferred_merge d0 e1 p0 b1000 t1", {21, 3, 0, 2, 14, 0, 0, 1, 16000}},
    {"deferred_merge d0 e1 p0 b1000 t4", {24, 3, 0, 2, 16, 0, 0, 1, 16000}},
    {"deferred_merge d0 e1 p1 b37 t1", {489, 3, 1, 2, 326, 0, 0, 1, 592}},
    {"deferred_merge d0 e1 p1 b37 t4", {492, 3, 1, 2, 328, 0, 0, 1, 592}},
    {"deferred_merge d0 e1 p1 b1000 t1", {21, 3, 1, 2, 14, 0, 0, 1, 16000}},
    {"deferred_merge d0 e1 p1 b1000 t4", {24, 3, 1, 2, 16, 0, 0, 1, 16000}},
    {"deferred_merge d1 e0 p0 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d1 e0 p0 b37 t4", {489, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d1 e0 p0 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d1 e0 p0 b1000 t4", {21, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d1 e0 p1 b37 t1", {489, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d1 e0 p1 b37 t4", {489, 3, 0, 0, 0, 0, 0, 0, 592}},
    {"deferred_merge d1 e0 p1 b1000 t1", {21, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d1 e0 p1 b1000 t4", {21, 3, 0, 0, 0, 0, 0, 0, 16000}},
    {"deferred_merge d1 e1 p0 b37 t1", {489, 3, 0, 2, 326, 0, 0, 1, 592}},
    {"deferred_merge d1 e1 p0 b37 t4", {489, 3, 0, 2, 326, 0, 0, 1, 592}},
    {"deferred_merge d1 e1 p0 b1000 t1", {21, 3, 0, 2, 14, 0, 0, 1, 16000}},
    {"deferred_merge d1 e1 p0 b1000 t4", {21, 3, 0, 2, 14, 0, 0, 1, 16000}},
    {"deferred_merge d1 e1 p1 b37 t1", {489, 3, 1, 2, 326, 0, 0, 1, 592}},
    {"deferred_merge d1 e1 p1 b37 t4", {489, 3, 1, 2, 326, 0, 0, 1, 592}},
    {"deferred_merge d1 e1 p1 b1000 t1", {21, 3, 1, 2, 14, 0, 0, 1, 16000}},
    {"deferred_merge d1 e1 p1 b1000 t4", {21, 3, 1, 2, 14, 0, 0, 1, 16000}},
  };
  return table;
}

void RunGrid(const Pipeline& p) {
  const std::string want = p.eager();
  for (const Cell& cell : Grid()) {
    const std::string key = CellKey(p.name, cell);
    SCOPED_TRACE(key);
    RuntimeOptions opts;
    opts.num_threads = cell.threads;
    opts.pedantic = true;
    opts.batch_elems_override = cell.batch;
    opts.dynamic_scheduling = cell.dynamic;
    opts.elide_boundaries = cell.elide;
    opts.pipeline_stages = cell.pipeline_stages;
    EvalStats::Snapshot stats;
    const std::string got = p.mozart(opts, &stats);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::memcmp(got.data(), want.data(), got.size()) == 0)
        << "output bytes differ from the eager library's";
    if (cell.batch == 0) {
      continue;
    }
    Structure actual = StructureOf(stats);
    auto it = Expected().find(key);
    if (it == Expected().end()) {
      ADD_FAILURE() << "no pinned structure; actual:\n" << StructureRow(key, actual);
      continue;
    }
    Structure expected = it->second;
    if (cell.dynamic && cell.threads > 1) {
      expected[kCarriedRecuts] = actual[kCarriedRecuts];
    }
    EXPECT_EQ(actual, expected) << "actual:\n" << StructureRow(key, actual);
  }
}

TEST(ExecutorIdentity, VecChain) { RunGrid(VecChain()); }
TEST(ExecutorIdentity, FilterConcat) { RunGrid(FilterConcat()); }
TEST(ExecutorIdentity, GroupBy) { RunGrid(GroupBy()); }
TEST(ExecutorIdentity, ReduceAdd) { RunGrid(ReduceAdd()); }
TEST(ExecutorIdentity, ZeroElements) { RunGrid(ZeroElements()); }
TEST(ExecutorIdentity, Subdivide) { RunGrid(Subdivide()); }
TEST(ExecutorIdentity, Coalesce) { RunGrid(Coalesce()); }
TEST(ExecutorIdentity, MultiProducer) { RunGrid(MultiProducer()); }
TEST(ExecutorIdentity, HaloRoll) { RunGrid(HaloRoll()); }
TEST(ExecutorIdentity, DeferredMerge) { RunGrid(DeferredMerge()); }

}  // namespace
}  // namespace mz
