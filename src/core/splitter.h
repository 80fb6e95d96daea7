// The splitting API (§3.3, Table 1 of the paper).
//
// Annotators bridge the split-type abstraction with code by implementing, per
// split type and concrete C++ type:
//   Info(value, params)              -> RuntimeInfo{total elements, bytes/elem}
//   Split(value, start, end, params) -> piece Value for elements [start, end)
//   Merge(original, pieces, params)  -> merged full Value
//
// Split also receives a SplitContext (thread id / thread count), which the
// paper provides "so splits that are not based on integer ranges" are
// possible. Merge receives the original full value when one exists (in-place
// split types like ArraySplit simply return it); for values *produced* by
// pipelines there is no original and an empty Value is passed.
//
// Merge is required to be associative: the executor merges each worker's
// pieces first and then merges the per-worker partials on the main thread.
#ifndef MOZART_CORE_SPLITTER_H_
#define MOZART_CORE_SPLITTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/value.h"

namespace mz {

// Filled by Info(); drives the batch-size heuristic (§5.2): a batch holds
// roughly C * L2_bytes / sum(bytes_per_element over stage inputs) elements.
struct RuntimeInfo {
  std::int64_t total_elements = 0;
  // Bytes of cache footprint contributed by one element of this input. Zero
  // for inputs with no memory footprint (e.g. the `size` scalar of an MKL
  // call, whose SizeSplit type splits arithmetic, not memory).
  std::int64_t bytes_per_element = 0;
};

struct SplitContext {
  int thread_id = 0;
  int num_threads = 1;
};

// Static properties of a splitter, consulted by the planner's stage-boundary
// carry-over analysis (piece passing, §5.2 extension) and by its per-stage
// footprint model. They describe the *semantics* of Split/Merge, not runtime
// state:
//  * merge_is_identity — Merge returns `original` unchanged because pieces
//    alias the original storage (pointer offsets, matrix views). Skipping
//    such a merge is always sound: the full value never stops being valid.
//  * merge_only — Info/Split throw; the type only merges produced pieces
//    (reductions, partial aggregations). Pieces of such a stream are *not*
//    positional slices of the source range, so they can never be re-consumed
//    piecewise — the runtime must materialize (merge) them at the boundary.
//  * element_width — bytes of cache footprint one element of this stream
//    contributes, for values the executor cannot Info() (buffers *produced*
//    mid-stage, carried pieces). 0 = unknown/variable; such buffers simply
//    do not contribute to the footprint sum. Must match what Info() would
//    report for the common case (e.g. sizeof(double) for a double stream).
//  * can_subdivide — Split may be applied to a *piece* of this stream with
//    piece-local [start, end) coordinates and yields the same value a split
//    of the original at the corresponding global range would (positional
//    slices of slices, cheap: pointer offsets, views, O(1) sub-slices).
//    Re-batching cuts inside a carried piece only through it; coalescing
//    whole carried pieces needs just Merge.
//  * incremental_merge — Merge is associative *across* invocations: merging
//    a previous Merge result together with new pieces yields the same value
//    as one Merge over all the pieces at once. Lets streaming execution
//    (stream.h) fold each window firing's reduction partial into a running
//    accumulator pairwise instead of retaining every partial and re-merging
//    from scratch. Declare it only when the merged value is a valid piece of
//    its own merge (scalar folds, re-aggregable grouped partials).
struct SplitterTraits {
  bool merge_is_identity = false;
  bool merge_only = false;
  std::int64_t element_width = 0;
  bool can_subdivide = false;
  bool incremental_merge = false;
};

class Splitter {
 public:
  virtual ~Splitter() = default;

  virtual RuntimeInfo Info(const Value& value, std::span<const std::int64_t> params) const = 0;

  virtual Value Split(const Value& value, std::int64_t start, std::int64_t end,
                      std::span<const std::int64_t> params, const SplitContext& ctx) const = 0;

  virtual Value Merge(const Value& original, std::vector<Value> pieces,
                      std::span<const std::int64_t> params) const = 0;

  virtual SplitterTraits traits() const { return {}; }

  // Exact per-element footprint for a stream whose split parameters are
  // already known, for values the executor cannot Info() (produced buffers,
  // carried pieces). The traits constant cannot express widths that depend
  // on the parameters — a MatrixSplit row is `cols * sizeof(double)` bytes —
  // so parameterized splitters override this. 0 = still unknown; the default
  // falls back to the traits constant.
  virtual std::int64_t WidthForParams(std::span<const std::int64_t> params) const {
    (void)params;
    return traits().element_width;
  }
};

// Merge written as a plain function (TypedSplitter, RegisterMergeOnlySplitter).
using MergeFunction = Value (*)(const Value&, std::vector<Value>, std::span<const std::int64_t>);

// Adapter for the common case: a splitter over values holding (or pointing
// to) a single C++ type, written as three lambdas / static functions.
//
//   RegisterSplitter<double*>(registry, "ArraySplit", {...});
//
// Derive instead when the splitter needs state.
template <typename T>
class TypedSplitter final : public Splitter {
 public:
  using InfoFn = RuntimeInfo (*)(const T&, std::span<const std::int64_t>);
  using SplitFn = Value (*)(const T&, std::int64_t, std::int64_t, std::span<const std::int64_t>,
                            const SplitContext&);
  using MergeFn = MergeFunction;
  using WidthFn = std::int64_t (*)(std::span<const std::int64_t>);

  TypedSplitter(InfoFn info, SplitFn split, MergeFn merge, SplitterTraits traits = {},
                WidthFn width = nullptr)
      : info_(info), split_(split), merge_(merge), traits_(traits), width_(width) {}

  RuntimeInfo Info(const Value& value, std::span<const std::int64_t> params) const override {
    return info_(value.As<T>(), params);
  }

  Value Split(const Value& value, std::int64_t start, std::int64_t end,
              std::span<const std::int64_t> params, const SplitContext& ctx) const override {
    return split_(value.As<T>(), start, end, params, ctx);
  }

  Value Merge(const Value& original, std::vector<Value> pieces,
              std::span<const std::int64_t> params) const override {
    return merge_(original, std::move(pieces), params);
  }

  SplitterTraits traits() const override { return traits_; }

  std::int64_t WidthForParams(std::span<const std::int64_t> params) const override {
    return width_ != nullptr ? width_(params) : traits_.element_width;
  }

 private:
  InfoFn info_;
  SplitFn split_;
  MergeFn merge_;
  SplitterTraits traits_;
  WidthFn width_;
};

}  // namespace mz

#endif  // MOZART_CORE_SPLITTER_H_
