#include "nlp/annotated.h"

#include <typeindex>

#include "common/check.h"
#include "core/registry.h"

namespace mznlp {
namespace {

using nlp::Corpus;
using nlp::PosCounts;
using nlp::TaggedDoc;
using mz::Registry;
using mz::RuntimeInfo;
using mz::SplitContext;
using mz::Value;

// ---- MinibatchSplit<num_docs>: document-range slices of a corpus ----

std::optional<std::vector<std::int64_t>> CorpusCtor(std::span<const Value> args) {
  MZ_CHECK_MSG(args.size() == 1, "MinibatchSplit constructor expects the corpus");
  if (!args[0].has_value()) {
    return std::nullopt;
  }
  return std::vector<std::int64_t>{args[0].As<Corpus>().size()};
}

RuntimeInfo CorpusInfo(const Corpus& corpus, std::span<const std::int64_t> params) {
  std::int64_t total = params.empty() ? corpus.size() : params[0];
  return RuntimeInfo{total, corpus.MeanDocBytes()};
}

Value CorpusSplitFn(const Corpus& corpus, std::int64_t start, std::int64_t end,
                    std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)params;
  (void)ctx;
  return Value::Make<Corpus>(corpus.Slice(start, end));
}

Value CorpusMerge(const Value& original, std::vector<Value> pieces,
                  std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  std::vector<Corpus> parts;
  parts.reserve(pieces.size());
  for (Value& p : pieces) {
    parts.push_back(p.As<Corpus>());
  }
  return Value::Make<Corpus>(Corpus::Concat(parts));
}

// ---- TaggedSplit: per-document results, merged by concatenation ----

RuntimeInfo TaggedInfo(const std::vector<TaggedDoc>& docs, std::span<const std::int64_t> params) {
  (void)params;
  return RuntimeInfo{static_cast<std::int64_t>(docs.size()), 64};
}

Value TaggedSplitFn(const std::vector<TaggedDoc>& docs, std::int64_t start, std::int64_t end,
                    std::span<const std::int64_t> params, const SplitContext& ctx) {
  (void)params;
  (void)ctx;
  return Value::Make<std::vector<TaggedDoc>>(
      std::vector<TaggedDoc>(docs.begin() + start, docs.begin() + end));
}

Value TaggedMerge(const Value& original, std::vector<Value> pieces,
                  std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  std::vector<TaggedDoc> out;
  for (Value& p : pieces) {
    const auto& part = p.As<std::vector<TaggedDoc>>();
    out.insert(out.end(), part.begin(), part.end());
  }
  return Value::Make<std::vector<TaggedDoc>>(std::move(out));
}

// ---- ReducePos: PosCounts partials, merged by field-wise addition ----

Value PosMerge(const Value& original, std::vector<Value> pieces,
               std::span<const std::int64_t> params) {
  (void)original;
  (void)params;
  MZ_CHECK_MSG(!pieces.empty(), "ReducePos merge with no pieces");
  PosCounts acc = pieces.front().As<PosCounts>();
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    acc += pieces[i].As<PosCounts>();
  }
  return Value::Make<PosCounts>(acc);
}

const bool g_registered = [] {
  RegisterSplits();
  return true;
}();

}  // namespace

void RegisterSplits() {
  static const bool done = [] {
    Registry& reg = Registry::Global();
    reg.DefineSplitType("MinibatchSplit", CorpusCtor, [](const Value& v) {
      return std::vector<std::int64_t>{v.As<Corpus>().size()};
    });
    reg.DefineSplitType("TaggedSplit", nullptr, nullptr);
    reg.DefineSplitType("ReducePos", nullptr, nullptr);
    // Corpus minibatches copy document handles (not a view), so carried
    // minibatches do not subdivide zero-copy; doc sizes vary, so no static
    // width. Tagged docs report a flat 64 bytes apiece from Info(), and the
    // trait mirrors it so *produced* tagged streams count toward their
    // stage's footprint.
    mz::RegisterTypedSplitter<Corpus>(reg, "MinibatchSplit", CorpusInfo, CorpusSplitFn,
                                      CorpusMerge,
                                      mz::SplitterTraits{.merge_is_identity = false,
                                                         .merge_only = false,
                                                         .element_width = 0,
                                                         .can_subdivide = false});
    mz::RegisterTypedSplitter<std::vector<TaggedDoc>>(reg, "TaggedSplit", TaggedInfo,
                                                      TaggedSplitFn, TaggedMerge,
                                                      mz::SplitterTraits{.merge_is_identity = false,
                                                                         .merge_only = false,
                                                                         .element_width = 64,
                                                                         .can_subdivide = false});
    mz::RegisterMergeOnlySplitter<PosCounts>(reg, "ReducePos", PosMerge);
    reg.SetDefaultSplitType(std::type_index(typeid(Corpus)), "MinibatchSplit");
    reg.SetDefaultSplitType(std::type_index(typeid(std::vector<TaggedDoc>)), "TaggedSplit");
    return true;
  }();
  (void)done;
}

const mz::Annotated<std::vector<TaggedDoc>(const Corpus&)> TagCorpus(
    nlp::TagCorpus, mz::AnnotationBuilder("nlp.TagCorpus")
                        .Arg("corpus", mz::Split("MinibatchSplit", {"corpus"}))
                        .Returns(mz::Split("TaggedSplit"))
                        .Build());

const mz::Annotated<PosCounts(const Corpus&)> CountPos(
    nlp::CountPos, mz::AnnotationBuilder("nlp.CountPos")
                       .Arg("corpus", mz::Split("MinibatchSplit", {"corpus"}))
                       .Returns(mz::Split("ReducePos"))
                       .Build());

std::uint64_t EnsureRegistered() {
  RegisterSplits();
  return mz::Registry::Global().version();
}

}  // namespace mznlp
