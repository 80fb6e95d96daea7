#include "dataframe/annotated.h"

#include <typeindex>

#include "common/check.h"
#include "core/registry.h"
#include "core/unpack.h"
#include "vecmath/annotated.h"

namespace mzdf {
namespace {

using df::Column;
using df::DataFrame;
using mz::Registry;
using mz::RuntimeInfo;
using mz::SplitContext;
using mz::Value;

// ---- SeriesSplit: row split of a Column ----

RuntimeInfo SeriesInfo(const Column& col, std::span<const std::int64_t> params) {
  std::int64_t total = params.empty() ? col.size() : params[0];
  return RuntimeInfo{total, col.BytesPerRow()};
}

Value SeriesSplitFn(const Column& col, std::int64_t start, std::int64_t end,
                    std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)params;
  (void)ctx;
  return Value::Make<Column>(col.Slice(start, end));
}

Value SeriesMerge(const Value& original, std::vector<Value> pieces,
                  std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  std::vector<Column> parts;
  parts.reserve(pieces.size());
  for (Value& p : pieces) {
    parts.push_back(p.As<Column>());
  }
  return Value::Make<Column>(Column::Concat(parts));
}

// ---- FrameSplit: row split of a DataFrame ----

RuntimeInfo FrameInfo(const DataFrame& frame, std::span<const std::int64_t> params) {
  std::int64_t total = params.empty() ? frame.num_rows() : params[0];
  return RuntimeInfo{total, frame.BytesPerRow()};
}

Value FrameSplitFn(const DataFrame& frame, std::int64_t start, std::int64_t end,
                   std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)params;
  (void)ctx;
  return Value::Make<DataFrame>(frame.Slice(start, end));
}

Value FrameMerge(const Value& original, std::vector<Value> pieces,
                 std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  std::vector<DataFrame> parts;
  parts.reserve(pieces.size());
  for (Value& p : pieces) {
    parts.push_back(p.As<DataFrame>());
  }
  return Value::Make<DataFrame>(DataFrame::Concat(parts));
}

// ---- GroupSplit<num_keys, op>: partial aggregations (merge-only) ----

Value GroupMerge(const Value& original, std::vector<Value> pieces,
                 std::span<const std::int64_t> params) {
  (void)original;
  MZ_CHECK_MSG(params.size() == 2, "GroupSplit expects (num_keys, op) parameters");
  std::vector<DataFrame> parts;
  parts.reserve(pieces.size());
  for (Value& p : pieces) {
    parts.push_back(p.As<DataFrame>());
  }
  DataFrame all = DataFrame::Concat(parts);
  return Value::Make<DataFrame>(df::ReAggregate(all, params[0], params[1]));
}

// Row-split constructors: params are {total_rows} — extended with the
// stream's exact bytes-per-row ({total_rows, bytes_per_row}) when the ctor
// argument is the materialized container itself, so WidthForParams can
// report real row widths (schema-dependent for frames, dtype-dependent for
// columns) instead of a one-size constant. Everything downstream indexes
// params[0] only, so the extra word is footprint metadata, not structure.
std::optional<std::vector<std::int64_t>> LenCtorColumn(std::span<const Value> args) {
  MZ_CHECK_MSG(args.size() == 1, "row-split constructor expects one argument");
  if (!args[0].has_value()) {
    return std::nullopt;
  }
  if (args[0].Is<Column>()) {
    const Column& col = args[0].As<Column>();
    return std::vector<std::int64_t>{col.size(), col.BytesPerRow()};
  }
  if (args[0].Is<DataFrame>()) {
    const DataFrame& frame = args[0].As<DataFrame>();
    return std::vector<std::int64_t>{frame.num_rows(), frame.BytesPerRow()};
  }
  return std::vector<std::int64_t>{mz::ValueToInt64(args[0])};
}

std::int64_t SeriesWidth(std::span<const std::int64_t> params) {
  return params.size() >= 2 ? params[1] : static_cast<std::int64_t>(sizeof(double));
}

std::int64_t FrameWidth(std::span<const std::int64_t> params) {
  return params.size() >= 2 ? params[1] : 0;
}

const bool g_registered = [] {
  RegisterSplits();
  return true;
}();

// ---- annotation patterns ----

mz::Annotation BinAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("a", mz::Generic("S"))
      .Arg("b", mz::Generic("S"))
      .Returns(mz::Generic("S"))
      .Build();
}

mz::Annotation UnaryAnn(const char* name) {
  return mz::AnnotationBuilder(name).Arg("a", mz::Generic("S")).Returns(mz::Generic("S")).Build();
}

mz::Annotation ScalarAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("a", mz::Generic("S"))
      .Arg("c", mz::NoSplit())
      .Returns(mz::Generic("S"))
      .Build();
}

mz::Annotation ReduceAnn(const char* name, const char* reduce_type) {
  return mz::AnnotationBuilder(name)
      .Arg("a", mz::Generic("S"))
      .Returns(mz::Split(reduce_type))
      .Build();
}

}  // namespace

void RegisterSplits() {
  static const bool done = [] {
    mzvec::RegisterSplits();  // Reduce{Add,Max,Min} for scalar reductions
    Registry& reg = Registry::Global();
    reg.DefineSplitType("SeriesSplit", LenCtorColumn, [](const Value& v) {
      const Column& col = v.As<Column>();
      return std::vector<std::int64_t>{col.size(), col.BytesPerRow()};
    });
    reg.DefineSplitType("FrameSplit", LenCtorColumn, [](const Value& v) {
      const DataFrame& frame = v.As<DataFrame>();
      return std::vector<std::int64_t>{frame.num_rows(), frame.BytesPerRow()};
    });
    reg.DefineSplitType("GroupSplit",
                        [](std::span<const Value> args)
                            -> std::optional<std::vector<std::int64_t>> {
                          MZ_CHECK_MSG(args.size() == 2, "GroupSplit constructor takes (key1, op)");
                          std::int64_t key1 = mz::ValueToInt64(args[0]);
                          std::int64_t op = mz::ValueToInt64(args[1]);
                          return std::vector<std::int64_t>{key1 >= 0 ? 2 : 1, op};
                        },
                        nullptr);

    // Column/DataFrame slices are offset views over shared storage, so a
    // piece re-Splits with piece-local ranges at zero copy (can_subdivide —
    // re-batching of carried row streams). For the footprint model both
    // report exact row widths through WidthForParams when their params
    // carry one; the traits constants remain the fallback — the common
    // 8-byte (double) row for series, unknown for schema-dependent frames.
    const mz::SplitterTraits kRowStream{.merge_is_identity = false,
                                        .merge_only = false,
                                        .element_width = sizeof(double),
                                        .can_subdivide = true};
    const mz::SplitterTraits kFrameStream{.merge_is_identity = false,
                                          .merge_only = false,
                                          .element_width = 0,
                                          .can_subdivide = true};
    mz::RegisterTypedSplitter<Column>(reg, "SeriesSplit", SeriesInfo, SeriesSplitFn, SeriesMerge,
                                      kRowStream, SeriesWidth);
    mz::RegisterTypedSplitter<DataFrame>(reg, "FrameSplit", FrameInfo, FrameSplitFn, FrameMerge,
                                         kFrameStream, FrameWidth);
    // GroupMerge (concat + ReAggregate) is associative across invocations —
    // every aggregation op folds commutatively, kMean included because
    // GroupByAgg emits sum and count partials — so grouped partials may
    // accumulate firing-by-firing in a stream (incremental_merge).
    mz::RegisterMergeOnlySplitter<DataFrame>(reg, "GroupSplit", GroupMerge,
                                             mz::SplitterTraits{.incremental_merge = true});
    reg.SetDefaultSplitType(std::type_index(typeid(Column)), "SeriesSplit");
    reg.SetDefaultSplitType(std::type_index(typeid(DataFrame)), "FrameSplit");
    return true;
  }();
  (void)done;
}

const ColBinFn ColAdd(df::ColAdd, BinAnn("df.ColAdd"));
const ColBinFn ColSub(df::ColSub, BinAnn("df.ColSub"));
const ColBinFn ColMul(df::ColMul, BinAnn("df.ColMul"));
const ColBinFn ColDiv(df::ColDiv, BinAnn("df.ColDiv"));
const ColBinFn MaskAnd(df::MaskAnd, BinAnn("df.MaskAnd"));
const ColBinFn MaskOr(df::MaskOr, BinAnn("df.MaskOr"));

const ColScalarFn ColAddC(df::ColAddC, ScalarAnn("df.ColAddC"));
const ColScalarFn ColMulC(df::ColMulC, ScalarAnn("df.ColMulC"));
const ColScalarFn ColDivC(df::ColDivC, ScalarAnn("df.ColDivC"));
const ColScalarFn ColGtC(df::ColGtC, ScalarAnn("df.ColGtC"));
const ColScalarFn ColLtC(df::ColLtC, ScalarAnn("df.ColLtC"));
const ColScalarFn ColGeC(df::ColGeC, ScalarAnn("df.ColGeC"));
const ColScalarFn ColEqC(df::ColEqC, ScalarAnn("df.ColEqC"));
const ColScalarFn ColFillNaN(df::ColFillNaN, ScalarAnn("df.ColFillNaN"));

const ColUnaryFn MaskNot(df::MaskNot, UnaryAnn("df.MaskNot"));
const ColUnaryFn ColIsNaN(df::ColIsNaN, UnaryAnn("df.ColIsNaN"));
const ColUnaryFn StrIsNumeric(df::StrIsNumeric, UnaryAnn("df.StrIsNumeric"));
const ColUnaryFn StrLen(df::StrLen, UnaryAnn("df.StrLen"));
const ColUnaryFn StrToDouble(df::StrToDouble, UnaryAnn("df.StrToDouble"));
const ColUnaryFn IntToDouble(df::IntToDouble, UnaryAnn("df.IntToDouble"));

const StrPredFn StrStartsWith(df::StrStartsWith, ScalarAnn("df.StrStartsWith"));
const StrPredFn StrContains(df::StrContains, ScalarAnn("df.StrContains"));

const mz::Annotated<Column(const Column&, long, long)> StrSlice(
    df::StrSlice, mz::AnnotationBuilder("df.StrSlice")
                      .Arg("a", mz::Generic("S"))
                      .Arg("start", mz::NoSplit())
                      .Arg("len", mz::NoSplit())
                      .Returns(mz::Generic("S"))
                      .Build());

const mz::Annotated<Column(const Column&, char)> StrRemoveChar(df::StrRemoveChar,
                                                               ScalarAnn("df.StrRemoveChar"));

const mz::Annotated<Column(const Column&, const Column&, double)> ColWhere(
    df::ColWhere, mz::AnnotationBuilder("df.ColWhere")
                      .Arg("mask", mz::Generic("S"))
                      .Arg("a", mz::Generic("S"))
                      .Arg("otherwise", mz::NoSplit())
                      .Returns(mz::Generic("S"))
                      .Build());

const mz::Annotated<Column(const Column&, const Column&, const std::string&)> StrWhere(
    df::StrWhere, mz::AnnotationBuilder("df.StrWhere")
                      .Arg("mask", mz::Generic("S"))
                      .Arg("a", mz::Generic("S"))
                      .Arg("otherwise", mz::NoSplit())
                      .Returns(mz::Generic("S"))
                      .Build());

const ColReduceFn ColSum(df::ColSum, ReduceAnn("df.ColSum", "ReduceAdd"));
const ColReduceFn ColMin(df::ColMin, ReduceAnn("df.ColMin", "ReduceMin"));
const ColReduceFn ColMax(df::ColMax, ReduceAnn("df.ColMax", "ReduceMax"));
const ColReduceFn ColCount(df::ColCount, ReduceAnn("df.ColCount", "ReduceAdd"));

const mz::Annotated<Column(const DataFrame&, long)> ColFromFrame(
    df::ColFromFrame, mz::AnnotationBuilder("df.ColFromFrame")
                          .Arg("frame", mz::Generic("S"))
                          .Arg("index", mz::NoSplit())
                          .Returns(mz::Generic("S"))
                          .Build());

const mz::Annotated<DataFrame(const DataFrame&, const std::string&, const Column&)> WithColumn(
    df::WithColumn, mz::AnnotationBuilder("df.WithColumn")
                        .Arg("frame", mz::Generic("S"))
                        .Arg("name", mz::NoSplit())
                        .Arg("col", mz::Generic("S"))
                        .Returns(mz::Generic("S"))
                        .Build());

// Filters return `unknown`: their output length is data-dependent, so the
// result can never be pipelined with anything except generics (§3.2).
const mz::Annotated<DataFrame(const DataFrame&, const Column&)> FilterRows(
    df::FilterRows, mz::AnnotationBuilder("df.FilterRows")
                        .Arg("frame", mz::Generic("S"))
                        .Arg("mask", mz::Generic("S"))
                        .Returns(mz::Unknown())
                        .Build());

// GroupByAgg parallelizes by partial aggregation: each piece produces a
// small grouped frame, merged by concat + re-aggregate (GroupSplit).
const mz::Annotated<DataFrame(const DataFrame&, long, long, long, long)> GroupByAgg(
    df::GroupByAgg, mz::AnnotationBuilder("df.GroupByAgg")
                        .Arg("frame", mz::Generic("S"))
                        .Arg("key0", mz::NoSplit())
                        .Arg("key1", mz::NoSplit())
                        .Arg("val", mz::NoSplit())
                        .Arg("op", mz::NoSplit())
                        .Returns(mz::Split("GroupSplit", {"key1", "op"}))
                        .Build());

// Joins split the probe side and broadcast the build side (§7, Pandas).
const mz::Annotated<DataFrame(const DataFrame&, const DataFrame&, long, long)> HashJoin(
    df::HashJoin, mz::AnnotationBuilder("df.HashJoin")
                      .Arg("left", mz::Generic("S"))
                      .Arg("right", mz::NoSplit())
                      .Arg("left_key", mz::NoSplit())
                      .Arg("right_key", mz::NoSplit())
                      .Returns(mz::Unknown())
                      .Build());

std::uint64_t EnsureRegistered() {
  RegisterSplits();
  return mz::Registry::Global().version();
}

}  // namespace mzdf
