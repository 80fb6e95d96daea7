#include "vecmath/annotated.h"

#include <typeindex>

#include "common/check.h"
#include "core/registry.h"
#include "core/unpack.h"

namespace mzvec {
namespace {

using mz::Registry;
using mz::RuntimeInfo;
using mz::SplitContext;
using mz::Value;

// ---- SizeSplit: the element-count argument (paper Listing 2) ----

RuntimeInfo SizeInfo(const long& n, std::span<const std::int64_t> params) {
  (void)n;
  // The scalar contributes no cache footprint; its "elements" are the
  // arithmetic range it describes.
  return RuntimeInfo{params.empty() ? n : params[0], 0};
}

Value SizeSplitFn(const long& n, std::int64_t start, std::int64_t end,
                  std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)n;
  (void)params;
  (void)ctx;
  return Value::Make<long>(static_cast<long>(end - start));
}

Value SizeMerge(const Value& original, std::vector<Value> pieces,
                std::span<const std::int64_t> params) {
  (void)pieces;
  (void)params;
  return original;
}

// ---- ArraySplit: contiguous double arrays; in-place pointer offsets ----

template <typename Ptr>
RuntimeInfo ArrayInfo(const Ptr& base, std::span<const std::int64_t> params) {
  (void)base;
  MZ_CHECK_MSG(!params.empty(), "ArraySplit requires a length parameter");
  return RuntimeInfo{params[0], static_cast<std::int64_t>(sizeof(double))};
}

template <typename Ptr>
Value ArraySplitFn(const Ptr& base, std::int64_t start, std::int64_t end,
                   std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)end;
  (void)params;
  (void)ctx;
  return Value::Make<Ptr>(base + start);
}

Value ArrayMerge(const Value& original, std::vector<Value> pieces,
                 std::span<const std::int64_t> params) {
  // Updates happened in place through the offset pointers; nothing to do.
  (void)pieces;
  (void)params;
  return original;
}

// ---- Reduce{Add,Max,Min}: merge-only types for scalar reductions ----

template <typename Fold>
Value ReduceMergeWith(std::vector<Value> pieces, Fold fold) {
  MZ_CHECK_MSG(!pieces.empty(), "reduction merge with no pieces");
  double acc = pieces.front().As<double>();
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    acc = fold(acc, pieces[i].As<double>());
  }
  return Value::Make<double>(acc);
}

Value ReduceAddMerge(const Value& original, std::vector<Value> pieces,
                     std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  return ReduceMergeWith(std::move(pieces), [](double a, double b) { return a + b; });
}

Value ReduceMaxMerge(const Value& original, std::vector<Value> pieces,
                     std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  return ReduceMergeWith(std::move(pieces), [](double a, double b) { return a > b ? a : b; });
}

Value ReduceMinMerge(const Value& original, std::vector<Value> pieces,
                     std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  return ReduceMergeWith(std::move(pieces), [](double a, double b) { return a < b ? a : b; });
}

// ---- VecSplit: owned double chunks (streaming windows) ----
//
// Raw double* arrays cannot be stream chunks — a chunk must own its memory
// so the windower can buffer it past the producer's stack frame. VecSplit
// makes std::vector<double> a first-class stream of doubles: Split copies
// the subrange (pieces own their elements), Merge concatenates. Registered
// as the default split type for std::vector<double>, which is what lets the
// windower (core/stream.h) slice and stitch buffered vector chunks; stream
// bodies unpack the window vector and call the raw-pointer mzvec surface on
// its data().

using Vec = std::vector<double>;

RuntimeInfo VecInfo(const Vec& v, std::span<const std::int64_t> params) {
  (void)params;
  return RuntimeInfo{static_cast<std::int64_t>(v.size()),
                     static_cast<std::int64_t>(sizeof(double))};
}

Value VecSplitFn(const Vec& v, std::int64_t start, std::int64_t end,
                 std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)params;
  (void)ctx;
  return Value::Make<Vec>(Vec(v.begin() + start, v.begin() + end));
}

Value VecMerge(const Value& original, std::vector<Value> pieces,
               std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  std::size_t total = 0;
  for (const Value& p : pieces) {
    total += p.As<Vec>().size();
  }
  Vec out;
  out.reserve(total);
  for (Value& p : pieces) {
    const Vec& v = p.As<Vec>();
    out.insert(out.end(), v.begin(), v.end());
  }
  return Value::Make<Vec>(std::move(out));
}

// Split-type constructor shared by SizeSplit and ArraySplit: params = (n),
// taken from the `size` argument.
std::optional<std::vector<std::int64_t>> LengthCtor(std::span<const Value> args) {
  MZ_CHECK_MSG(args.size() == 1, "length constructor expects one argument");
  if (!args[0].has_value()) {
    return std::nullopt;  // pending; defer (never happens for literal sizes)
  }
  return std::vector<std::int64_t>{mz::ValueToInt64(args[0])};
}

// ---- annotation patterns ----

mz::Annotation UnaryAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("size", mz::Split("SizeSplit", {"size"}))
      .Arg("a", mz::Split("ArraySplit", {"size"}))
      .MutArg("out", mz::Split("ArraySplit", {"size"}))
      .Build();
}

mz::Annotation BinaryAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("size", mz::Split("SizeSplit", {"size"}))
      .Arg("a", mz::Split("ArraySplit", {"size"}))
      .Arg("b", mz::Split("ArraySplit", {"size"}))
      .MutArg("out", mz::Split("ArraySplit", {"size"}))
      .Build();
}

mz::Annotation ScalarAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("size", mz::Split("SizeSplit", {"size"}))
      .Arg("a", mz::Split("ArraySplit", {"size"}))
      .Arg("c", mz::NoSplit())
      .MutArg("out", mz::Split("ArraySplit", {"size"}))
      .Build();
}

mz::Annotation TernaryAnn(const char* name) {
  return mz::AnnotationBuilder(name)
      .Arg("size", mz::Split("SizeSplit", {"size"}))
      .Arg("a", mz::Split("ArraySplit", {"size"}))
      .Arg("b", mz::Split("ArraySplit", {"size"}))
      .Arg("c", mz::Split("ArraySplit", {"size"}))
      .MutArg("out", mz::Split("ArraySplit", {"size"}))
      .Build();
}

mz::Annotation ReduceAnn(const char* name, const char* reduce_type) {
  return mz::AnnotationBuilder(name)
      .Arg("size", mz::Split("SizeSplit", {"size"}))
      .Arg("a", mz::Split("ArraySplit", {"size"}))
      .Returns(mz::Split(reduce_type))
      .Build();
}

mz::Annotation Reduce2Ann(const char* name, const char* reduce_type) {
  return mz::AnnotationBuilder(name)
      .Arg("size", mz::Split("SizeSplit", {"size"}))
      .Arg("a", mz::Split("ArraySplit", {"size"}))
      .Arg("b", mz::Split("ArraySplit", {"size"}))
      .Returns(mz::Split(reduce_type))
      .Build();
}

const bool g_registered = [] {
  RegisterSplits();
  return true;
}();

}  // namespace

void RegisterSplits() {
  static const bool done = [] {
    Registry& reg = Registry::Global();
    reg.DefineSplitType("SizeSplit", LengthCtor, nullptr);
    reg.DefineSplitType("ArraySplit", LengthCtor, nullptr);
    reg.DefineSplitType("VecSplit", LengthCtor, [](const Value& v) {
      return std::vector<std::int64_t>{static_cast<std::int64_t>(v.As<Vec>().size())};
    });
    reg.DefineSplitType("ReduceAdd", nullptr, nullptr);
    reg.DefineSplitType("ReduceMax", nullptr, nullptr);
    reg.DefineSplitType("ReduceMin", nullptr, nullptr);

    // Pieces of these types alias the original storage (scalars and pointer
    // offsets), so their merges are identities — the executor may keep the
    // pieces across a stage boundary (piece passing) without materializing —
    // and a piece can itself be re-Split with piece-local ranges (pointer
    // arithmetic), which is what zero-copy re-batching leans on. ArraySplit
    // declares its 8-byte element width for the per-stage footprint model;
    // SizeSplit splits arithmetic, not memory, and stays at width 0.
    const mz::SplitterTraits kInPlaceSize{.merge_is_identity = true,
                                          .merge_only = false,
                                          .element_width = 0,
                                          .can_subdivide = true};
    const mz::SplitterTraits kInPlaceArray{.merge_is_identity = true,
                                           .merge_only = false,
                                           .element_width = sizeof(double),
                                           .can_subdivide = true};
    // The scalar reductions fold commutatively, so a previous merge result
    // is itself a valid piece of the next merge — streams may accumulate
    // them firing by firing (incremental_merge, core/stream.h).
    const mz::SplitterTraits kMergeOnly{.merge_is_identity = false,
                                        .merge_only = true,
                                        .element_width = 0,
                                        .can_subdivide = false,
                                        .incremental_merge = true};
    // Owned chunks: pieces are vectors themselves, so piece-local re-splits
    // are exact (can_subdivide) and Merge really concatenates.
    const mz::SplitterTraits kOwnedVec{.merge_is_identity = false,
                                       .merge_only = false,
                                       .element_width = sizeof(double),
                                       .can_subdivide = true};
    mz::RegisterTypedSplitter<long>(reg, "SizeSplit", SizeInfo, SizeSplitFn, SizeMerge,
                                    kInPlaceSize);
    mz::RegisterTypedSplitter<double*>(reg, "ArraySplit", ArrayInfo<double*>,
                                       ArraySplitFn<double*>, ArrayMerge, kInPlaceArray);
    mz::RegisterTypedSplitter<const double*>(reg, "ArraySplit", ArrayInfo<const double*>,
                                             ArraySplitFn<const double*>, ArrayMerge,
                                             kInPlaceArray);
    mz::RegisterTypedSplitter<Vec>(reg, "VecSplit", VecInfo, VecSplitFn, VecMerge, kOwnedVec);
    reg.SetDefaultSplitType(std::type_index(typeid(Vec)), "VecSplit");
    mz::RegisterMergeOnlySplitter<double>(reg, "ReduceAdd", ReduceAddMerge, kMergeOnly);
    mz::RegisterMergeOnlySplitter<double>(reg, "ReduceMax", ReduceMaxMerge, kMergeOnly);
    mz::RegisterMergeOnlySplitter<double>(reg, "ReduceMin", ReduceMinMerge, kMergeOnly);
    return true;
  }();
  (void)done;
}

// Wrapped library surface. Each wrapper pairs the *unmodified* vecmath
// kernel with its SA — no vecmath code changes.
const UnaryFn Sqrt(vecmath::Sqrt, UnaryAnn("Sqrt"));
const UnaryFn Exp(vecmath::Exp, UnaryAnn("Exp"));
const UnaryFn Log(vecmath::Log, UnaryAnn("Log"));
const UnaryFn Log1p(vecmath::Log1p, UnaryAnn("Log1p"));
const UnaryFn Erf(vecmath::Erf, UnaryAnn("Erf"));
const UnaryFn Sin(vecmath::Sin, UnaryAnn("Sin"));
const UnaryFn Cos(vecmath::Cos, UnaryAnn("Cos"));
const UnaryFn Tan(vecmath::Tan, UnaryAnn("Tan"));
const UnaryFn Asin(vecmath::Asin, UnaryAnn("Asin"));
const UnaryFn Acos(vecmath::Acos, UnaryAnn("Acos"));
const UnaryFn Atan(vecmath::Atan, UnaryAnn("Atan"));
const UnaryFn Abs(vecmath::Abs, UnaryAnn("Abs"));
const UnaryFn Neg(vecmath::Neg, UnaryAnn("Neg"));
const UnaryFn Inv(vecmath::Inv, UnaryAnn("Inv"));
const UnaryFn Sqr(vecmath::Sqr, UnaryAnn("Sqr"));
const UnaryFn Floor(vecmath::Floor, UnaryAnn("Floor"));
const UnaryFn Ceil(vecmath::Ceil, UnaryAnn("Ceil"));
const UnaryFn Copy(vecmath::Copy, UnaryAnn("Copy"));

const BinaryFn Add(vecmath::Add, BinaryAnn("Add"));
const BinaryFn Sub(vecmath::Sub, BinaryAnn("Sub"));
const BinaryFn Mul(vecmath::Mul, BinaryAnn("Mul"));
const BinaryFn Div(vecmath::Div, BinaryAnn("Div"));
const BinaryFn Pow(vecmath::Pow, BinaryAnn("Pow"));
const BinaryFn Atan2(vecmath::Atan2, BinaryAnn("Atan2"));
const BinaryFn Hypot(vecmath::Hypot, BinaryAnn("Hypot"));
const BinaryFn Max(vecmath::Max, BinaryAnn("Max"));
const BinaryFn Min(vecmath::Min, BinaryAnn("Min"));
const BinaryFn GreaterThan(vecmath::GreaterThan, BinaryAnn("GreaterThan"));
const BinaryFn LessThan(vecmath::LessThan, BinaryAnn("LessThan"));

const ScalarFn AddC(vecmath::AddC, ScalarAnn("AddC"));
const ScalarFn SubC(vecmath::SubC, ScalarAnn("SubC"));
const ScalarFn MulC(vecmath::MulC, ScalarAnn("MulC"));
const ScalarFn DivC(vecmath::DivC, ScalarAnn("DivC"));
const ScalarFn RSubC(vecmath::RSubC, ScalarAnn("RSubC"));
const ScalarFn RDivC(vecmath::RDivC, ScalarAnn("RDivC"));
const ScalarFn PowC(vecmath::PowC, ScalarAnn("PowC"));

const TernaryFn Fma(vecmath::Fma, TernaryAnn("Fma"));
const TernaryFn Select(vecmath::Select, TernaryAnn("Select"));

const mz::Annotated<void(long, double, const double*, double*)> Axpy(
    vecmath::Axpy, mz::AnnotationBuilder("Axpy")
                       .Arg("size", mz::Split("SizeSplit", {"size"}))
                       .Arg("alpha", mz::NoSplit())
                       .Arg("x", mz::Split("ArraySplit", {"size"}))
                       .MutArg("y", mz::Split("ArraySplit", {"size"}))
                       .Build());

const mz::Annotated<void(long, double, double*)> Fill(
    vecmath::Fill, mz::AnnotationBuilder("Fill")
                       .Arg("size", mz::Split("SizeSplit", {"size"}))
                       .Arg("c", mz::NoSplit())
                       .MutArg("out", mz::Split("ArraySplit", {"size"}))
                       .Build());

const ReduceFn Sum(vecmath::Sum, ReduceAnn("Sum", "ReduceAdd"));
const ReduceFn MaxReduce(vecmath::MaxReduce, ReduceAnn("MaxReduce", "ReduceMax"));
const ReduceFn MinReduce(vecmath::MinReduce, ReduceAnn("MinReduce", "ReduceMin"));
const Reduce2Fn Dot(vecmath::Dot, Reduce2Ann("Dot", "ReduceAdd"));

std::uint64_t EnsureRegistered() {
  RegisterSplits();
  return mz::Registry::Global().version();
}

}  // namespace mzvec
