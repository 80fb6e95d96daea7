#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/timer.h"

namespace mz {

namespace {

// A carried stage is re-batched when its average inherited piece is more
// than this factor larger (subdivide) or smaller (coalesce) than the batch
// the stage's own footprint picks.
constexpr double kRebatchThreshold = 2.0;

// One output piece tagged with the batch range that produced it, so
// dynamic scheduling can restore global order before merging and carried
// pieces can drive the consuming stage's batch structure.
struct OrderedPiece {
  std::int64_t start = 0;
  std::int64_t end = 0;
  Value piece;
};
using PieceTable = std::vector<std::vector<OrderedPiece>>;  // [worker]

// Pieces handed across a stage boundary instead of being merged:
// per-worker piece lists (aligned by index across all buffers carried from
// the same producer stage) plus the producer's element total and how many
// consecutive carried boundaries this stream has crossed (chain length —
// feeds EvalStats::carry_chain_len_max).
struct CarriedSet {
  PieceTable per_worker;
  std::int64_t total = -1;
  int chain_len = 1;
};

// First non-empty piece of a per-worker piece table (sample for splitter
// resolution and Info probes); null when every piece is empty.
const Value* FirstPiece(const PieceTable& table) {
  for (const auto& per_worker : table) {
    for (const OrderedPiece& p : per_worker) {
      if (p.piece.has_value()) {
        return &p.piece;
      }
    }
  }
  return nullptr;
}

void SortByStart(std::vector<OrderedPiece>& pieces) {
  std::sort(pieces.begin(), pieces.end(),
            [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
}

// Every piece of a per-worker piece table in one list sorted by start:
// source order, whichever worker produced each piece. `consume` moves the
// pieces out and empties the table; otherwise they are shared-holder
// copies and the table stays intact.
std::vector<OrderedPiece> SortedPieces(PieceTable& table, bool consume) {
  std::vector<OrderedPiece> all;
  for (auto& per_worker : table) {
    if (consume) {
      all.insert(all.end(), std::make_move_iterator(per_worker.begin()),
                 std::make_move_iterator(per_worker.end()));
      per_worker.clear();
    } else {
      all.insert(all.end(), per_worker.begin(), per_worker.end());
    }
  }
  SortByStart(all);
  return all;
}

// The non-empty values of `pieces`, in order.
std::vector<Value> PieceValues(std::vector<OrderedPiece> pieces) {
  std::vector<Value> values;
  values.reserve(pieces.size());
  for (OrderedPiece& p : pieces) {
    if (p.piece.has_value()) {
      values.push_back(std::move(p.piece));
    }
  }
  return values;
}

// Runs fn(w) on `width` pool workers and, once all have returned, rethrows
// on the calling thread the first exception any of them threw.
template <typename Fn>
void FanOut(ThreadPool* pool, int width, const Fn& fn) {
  std::mutex mu;
  std::exception_ptr first;
  pool->RunOnWorkers(width, [&](int w) {
    try {
      fn(w);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first) {
        first = std::current_exception();
      }
    }
  });
  if (first) {
    std::rethrow_exception(first);
  }
}

// Per-buffer execution state resolved at region start.
struct BufExec {
  Value full;  // inputs and broadcasts (and carried identity streams)
  const Splitter* splitter = nullptr;
  std::vector<std::int64_t> params;
  RuntimeInfo info{};
  bool carried = false;   // fed by carried pieces; no Info/Split calls
  CarriedSet carried_in;  // depth 0: the piece set claimed from upstream
  // In-region piece feeds (pipeline regions): the producer side records
  // which depth consumes its carry_out buffer and a dense feed slot id;
  // the consumer side records where its carried input comes from.
  int feed_consumer = -1;  // producer: consuming depth, -1 = none
  int feed_id = -1;        // producer: dense feed slot id
  int src_feed = -1;       // consumer: dense feed slot id
};

// One batch of a region: the element range [begin, end), walked through
// every depth. cw/cidx locate the carried entry pieces feeding it (cw < 0
// for range-driven regions).
struct Task {
  int cw = -1;
  std::size_t cidx = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// The dynamic walk's queue over (task, depth) runs. Depth d of a task
// becomes ready when its depth d-1 finishes; workers claim the deepest
// ready run first, so downstream compute and merges drain while upstream
// batches are still being produced. Depth 0 is claimed in ascending task
// order; a one-depth region is the same queue with no deeper bucket.
class TaskQueue {
 public:
  void Reset(int depths, std::size_t tasks) {
    depths_ = depths;
    tasks_ = tasks;
    next_ = 0;
    ready_.assign(static_cast<std::size_t>(depths), {});
    completed_ = 0;
    failed_ = false;
  }

  // Claims the next run; false once every run finished or the walk failed.
  bool Claim(int* depth, std::size_t* task) {
    *depth = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (failed_ || completed_ == tasks_ * static_cast<std::size_t>(depths_)) {
        return false;
      }
      for (int d = depths_ - 1; d >= 1; --d) {
        auto& bucket = ready_[static_cast<std::size_t>(d)];
        if (!bucket.empty()) {
          *depth = d;
          *task = bucket.back();
          bucket.pop_back();
          return true;
        }
      }
      if (next_ < tasks_) {
        *task = next_++;
        return true;
      }
      cv_.wait(lk);
    }
  }

  void Complete(int depth, std::size_t task) {
    std::lock_guard<std::mutex> lk(mu_);
    ++completed_;
    if (depth + 1 < depths_) {
      ready_[static_cast<std::size_t>(depth + 1)].push_back(task);
      cv_.notify_one();
    } else if (completed_ == tasks_ * static_cast<std::size_t>(depths_)) {
      cv_.notify_all();
    }
  }

  // A worker failed: every other worker stops claiming.
  void Poison() {
    std::lock_guard<std::mutex> lk(mu_);
    failed_ = true;
    cv_.notify_all();
  }

 private:
  int depths_ = 1;
  std::size_t tasks_ = 0;
  std::size_t next_ = 0;  // next unclaimed depth-0 task
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::vector<std::size_t>> ready_;  // [depth >= 1]: ready tasks
  std::size_t completed_ = 0;
  bool failed_ = false;
};

// Re-batch direction of a carried entry stage, measured on the template
// set (see RegionRun::ReconcileCarried).
enum class RebatchOp { kNone, kSubdivide, kCoalesce };

// What one carried buffer can do. Identity streams with a live full value
// re-slice it at any granularity (pure pointer arithmetic); otherwise
// pieces subdivide through their own splitter when it declares
// can_subdivide, and coalesce through their merge.
struct CarryCap {
  bool identity_full = false;
  const Splitter* full_splitter = nullptr;
  const Splitter* piece_splitter = nullptr;
  bool piece_subdivide = false;
};

// Per-buffer plan: keep, rebuild from the full value, transform piecewise,
// re-cut from coverage, or materialize.
enum class CarryMode { kKeep, kRebuild, kPiecewise, kRecut, kMaterialize };

// One range of the final carried structure, with provenance into the
// template set's (sorted) ranges: [src_lo, src_hi) source piece indices.
struct FinalRange {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::size_t src_lo = 0;
  std::size_t src_hi = 0;
};

// ReconcileCarried's decisions, read by every worker's transform.
struct Rebatch {
  RebatchOp op = RebatchOp::kNone;
  std::vector<CarryCap> caps;                            // [buffer]
  std::vector<CarryMode> modes;                          // [buffer]
  std::vector<std::vector<FinalRange>> final_ranges;     // [worker]
  std::vector<std::vector<OrderedPiece>> recut_sources;  // [buffer]
};

// A merge of one output buffer's parts, cut into contiguous groups for
// the merge tree.
struct MergeJob {
  std::size_t buf = 0;
  int depth = 0;
  const Splitter* ms = nullptr;
  std::vector<Value> parts;
  std::span<const std::int64_t> params;
  std::vector<Value> group_results;
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  Value final_value;
};

}  // namespace

// Reusable scratch: the per-depth pieces/partials tables, per-worker
// cursors, the task list and the dynamic queue live here so a multi-stage
// plan reuses their capacity instead of reallocating every region.
struct Executor::Scratch {
  // Execution state for one stage of the current region ("depth" = its
  // position within the region; a standalone stage is a region of depth 1).
  struct StageExec {
    std::vector<BufExec> bufs;
    std::vector<PieceTable> pieces;            // [buffer][worker], output pieces
    std::vector<std::vector<Value>> partials;  // [buffer][worker]
  };
  std::vector<StageExec> stages;
  struct PerWorker {
    std::vector<std::vector<Value>> cur;  // [depth][buffer]
    std::vector<Value*> call_args;
    std::int64_t split_ns = 0;
    std::int64_t task_ns = 0;
    std::int64_t merge_ns = 0;
    std::int64_t overlap_ns = 0;
    std::int64_t batches = 0;
  };
  std::vector<PerWorker> workers;
  // The region's batch tasks; worker w's static slice is
  // [task_offsets[w], task_offsets[w + 1]).
  std::vector<Task> tasks;
  std::vector<std::size_t> task_offsets;
  TaskQueue queue;
  // Deep regions: feed values in flight, [task * feed slots + id].
  std::vector<Value> feeds;
  // Piece sets in flight between regions, keyed by the carried slot.
  std::unordered_map<SlotId, CarriedSet> carried;

  void Reset(const std::vector<const Stage*>& region, int num_threads) {
    const auto nt = static_cast<std::size_t>(num_threads);
    stages.resize(region.size());
    for (std::size_t d = 0; d < region.size(); ++d) {
      StageExec& st = stages[d];
      const std::size_t nb = region[d]->buffers.size();
      st.bufs.assign(nb, BufExec{});
      st.pieces.resize(nb);
      for (PieceTable& table : st.pieces) {
        table.resize(nt);
        for (auto& per_worker : table) {
          per_worker.clear();
        }
      }
      st.partials.assign(nb, std::vector<Value>(nt));
    }
    workers.resize(nt);
    tasks.clear();
    feeds.clear();
  }
};

// One region's run: the state RunRegion's units share, with the units (in
// the order RunRegion calls them) as its public methods.
class Executor::RegionRun {
 public:
  RegionRun(Executor* ex, const std::vector<const Stage*>& region)
      : ex_(*ex),
        graph_(*ex->graph_),
        stats_(*ex->stats_),
        region_(region),
        sc_(*ex->scratch_),
        depths_(static_cast<int>(region.size())),
        threads_(ex->pool_->num_threads()),
        elide_(ex->opts_.elide_boundaries),
        dynamic_(ex->opts_.dynamic_scheduling),
        pedantic_(ex->opts_.pedantic) {
    sc_.Reset(region, threads_);
  }

  bool takes_carries() const { return takes_carries_; }

  // ---- ResolveBuffers ----

  // Resolves every buffer of every depth. Fresh split inputs get their
  // split params, splitter and Info(), and must agree on the region's
  // element total; broadcasts get their full value. Carried inputs skip
  // Info and Split: at depth 0 they claim the piece set handed across the
  // region's entry boundary, deeper they are wired to the in-region stage
  // that feeds them (AnnotatePipeline guarantees one exists). Fresh inputs
  // at interior depths were materialized before the region started (the
  // planner refuses regions over in-region-produced fresh inputs) and are
  // split by the in-flight batch ranges, exactly like the entry stage's.
  void ResolveBuffers() {
    std::int64_t fresh_total = -1;
    std::int64_t carried_total = -1;
    for (int d = 0; d < depths_; ++d) {
      const Stage& stage = StageAt(d);
      for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
        const StageBuffer& def = stage.buffers[i];
        BufExec& b = ExecAt(d).bufs[i];
        Slot& slot = graph_.slot(def.slot);
        if (elide_ && def.carry_in) {
          if (d == 0) {
            ClaimCarried(i, &carried_total);
          } else {
            WireFeed(d, i);
          }
          // Keep the slot's full value when it still holds one (identity
          // streams: pieces alias it) so merges and broadcasts that name
          // the original stay correct, and the plan-time params for a
          // possible merge of mutated carried pieces.
          b.carried = true;
          if (slot.value.has_value()) {
            b.full = slot.value;
          }
          if (!def.use_default_split && !def.params_deferred) {
            b.params = def.params;
          }
          continue;
        }
        if (!def.is_input && !def.is_broadcast) {
          continue;  // produced in-stage
        }
        MZ_THROW_IF(!slot.value.has_value(),
                    "stage input has no materialized value (slot " << def.slot << ")");
        b.full = slot.value;
        if (!def.is_input) {
          continue;
        }
        ResolveFreshInput(d, i);
        const std::int64_t n = b.info.total_elements;
        if (d > 0) {
          MZ_THROW_IF(n != total_, "pipelined stage input disagrees with the region on total "
                                   "elements: "
                                       << n << " vs " << total_ << " (slot " << def.slot << ")");
        } else if (fresh_total < 0) {
          fresh_total = n;
        } else {
          MZ_THROW_IF(fresh_total != n, "stage inputs disagree on total elements: "
                                            << fresh_total << " vs " << n << " (slot "
                                            << def.slot << ")");
        }
      }
      if (d == 0) {
        MZ_THROW_IF(takes_carries_ && fresh_total >= 0 && fresh_total != carried_total,
                    "stage inputs disagree with carried pieces on total elements: "
                        << fresh_total << " vs " << carried_total);
        total_ = takes_carries_ ? carried_total : fresh_total;
        MZ_CHECK_MSG(total_ >= 0, "non-serial stage with no split inputs");
      }
    }
  }

  // ---- SizeBatch ----

  // Footprint model (§5.2 extension): one batch walks the region depth by
  // depth, so the live working set is the widest stage's, not the sum of
  // all stages'. Produced values and carried pieces are part of a stage's
  // working set too (ElemBytes). Broadcast ("_") operands sit
  // cache-resident for the whole stage regardless of the batch size (a
  // hash join's build side), so they charge *resident* bytes that shrink
  // the batch budget instead of per-element bytes. Halo broadcasts (a
  // stencil's source) are read around each batch's band only, so they
  // charge their width per element — unless their element count differs
  // from the region's, when no band correspondence exists and they fall
  // back to the resident charge. Carried regions need the batch too: it is
  // the yardstick re-batching measures the inherited granularity against.
  void SizeBatch() {
    for (int d = 0; d < depths_; ++d) {
      const Stage& stage = StageAt(d);
      std::int64_t stage_bpe = 0;
      std::int64_t resident = 0;
      for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
        const StageBuffer& def = stage.buffers[i];
        if (!def.is_broadcast) {
          stage_bpe += ElemBytes(d, i);
        } else if (auto info = ex_.registry_->ProbeRuntimeInfo(ExecAt(d).bufs[i].full);
                   info.has_value() && info->bytes_per_element > 0 &&
                   info->total_elements > 0) {
          if (def.is_halo && info->total_elements == total_) {
            stage_bpe += info->bytes_per_element;
          } else {
            resident += info->total_elements * info->bytes_per_element;
          }
        }
      }
      sum_bpe_max_ = std::max(sum_bpe_max_, stage_bpe);
      resident_max_ = std::max(resident_max_, resident);
    }
    batch_ = ex_.opts_.batch_override;
    if (batch_ <= 0) {
      batch_ = ex_.HeuristicBatchElems(sum_bpe_max_, resident_max_);
      if (batch_ == 0) {
        // No buffer reports a memory footprint; fall back to one batch per
        // worker.
        batch_ = std::max<std::int64_t>(1, (total_ + threads_ - 1) / threads_);
      }
    }
    batch_ = std::clamp<std::int64_t>(batch_, 1, std::max<std::int64_t>(total_, 1));
    granularity_ = batch_;
  }

  // ---- ReconcileCarried ----

  // Reconciles the carried piece sets with this stage's batch choice
  // (footprint-aware re-batching) and with each other (multi-producer
  // carry chains). The template set's ranges define the stage's final
  // batch structure; every other carried buffer is brought to that exact
  // structure — kept as-is, transformed piecewise, rebuilt by re-slicing
  // an identity stream's full value, re-cut from pieces that tile the
  // stream exactly, or (last resort) materialized into the slot and
  // re-split like a fresh input. Sets granularity_ to the largest piece of
  // the final structure.
  void ReconcileCarried() {
    Scratch::StageExec& st0 = Entry();
    const std::size_t nb = st0.bufs.size();
    const PieceTable& tlists = TemplateLists();
    auto same_range = [](const OrderedPiece& x, const OrderedPiece& y) {
      return x.start == y.start && x.end == y.end;
    };
    auto same_structure = [&](const PieceTable& a) {
      return std::equal(a.begin(), a.end(), tlists.begin(), tlists.end(),
                        [&](const auto& x, const auto& y) {
                          return std::equal(x.begin(), x.end(), y.begin(), y.end(), same_range);
                        });
    };

    Rebatch rb;
    rb.op = RebatchDirection();
    rb.caps.assign(nb, CarryCap{});
    std::vector<bool> matches(nb, false);
    for (std::size_t i = 0; i < nb; ++i) {
      if (st0.bufs[i].carried) {
        rb.caps[i] = CapabilityOf(i);
        matches[i] = static_cast<int>(i) == template_buf_ ||
                     same_structure(st0.bufs[i].carried_in.per_worker);
      }
    }
    const CarryCap& tcap = rb.caps[static_cast<std::size_t>(template_buf_)];
    if (rb.op == RebatchOp::kSubdivide && !(tcap.identity_full || tcap.piece_subdivide)) {
      rb.op = RebatchOp::kNone;  // the structure-defining set cannot re-cut: inherit
    }
    if (rb.op == RebatchOp::kCoalesce && !(tcap.identity_full || tcap.piece_splitter != nullptr)) {
      rb.op = RebatchOp::kNone;
    }
    const std::int64_t max_len = BuildFinalRanges(&rb);

    rb.modes.assign(nb, CarryMode::kKeep);
    rb.recut_sources.resize(nb);
    bool any_transform = false;
    bool any_rebatch = false;
    int nrecut = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      if (!st0.bufs[i].carried) {
        continue;
      }
      const CarryCap& cap = rb.caps[i];
      CarryMode& mode = rb.modes[i];
      if (matches[i]) {
        if (rb.op == RebatchOp::kNone) {
          mode = CarryMode::kKeep;
        } else if (cap.identity_full) {
          mode = CarryMode::kRebuild;
        } else if (rb.op == RebatchOp::kSubdivide ? cap.piece_subdivide
                                                  : cap.piece_splitter != nullptr) {
          mode = CarryMode::kPiecewise;
        } else {
          mode = CarryMode::kMaterialize;
        }
      } else if (cap.identity_full) {
        // Different producer, different range structure: re-slice identity
        // streams straight to the final structure; owned streams whose
        // pieces provably cover the stream re-cut in place; everything else
        // materializes (sound: merging at consume time is what the
        // non-carried path would have done at the boundary).
        mode = CarryMode::kRebuild;
      } else if (cap.piece_splitter != nullptr && cap.piece_subdivide &&
                 GatherRecutSources(&rb, i)) {
        mode = CarryMode::kRecut;
        ++nrecut;
      } else {
        mode = CarryMode::kMaterialize;
      }
      if (mode == CarryMode::kRebuild || mode == CarryMode::kPiecewise ||
          mode == CarryMode::kRecut) {
        any_transform = true;
        any_rebatch = any_rebatch || (matches[i] && rb.op != RebatchOp::kNone);
      }
    }

    for (std::size_t i = 0; i < nb; ++i) {
      if (st0.bufs[i].carried && rb.modes[i] == CarryMode::kMaterialize) {
        MaterializeCarried(i);
      }
    }
    if (any_transform) {
      FanOut(ex_.pool_, threads_, [&](int w) {
        for (std::size_t i = 0; i < nb; ++i) {
          if (st0.bufs[i].carried && rb.modes[i] != CarryMode::kKeep) {
            TransformCarried(rb, i, w);
          }
        }
      });
    }
    if (any_rebatch) {
      stats_.stages_rebatched.fetch_add(1, std::memory_order_relaxed);
    }
    if (nrecut > 0) {
      stats_.carried_recuts.fetch_add(nrecut, std::memory_order_relaxed);
    }
    granularity_ = std::max<std::int64_t>(max_len, 1);
  }

  // ---- BuildTasks ----

  // The region's batch tasks, from exactly one source: the (reconciled)
  // carried template's per-worker piece lists, each worker's contiguous
  // static chunk (§5.2), or the global dynamic stepping. A zero-element
  // region gets one empty task on worker 0 so produced values keep their
  // schema (e.g. an empty DataFrame with the right columns).
  void BuildTasks() {
    MZ_LOG(Debug) << "region[" << depths_ << "]: " << StageAt(0).funcs.size()
                  << " entry funcs, total=" << total_ << " elems, "
                  << (takes_carries_ ? "piece-driven (carried), granularity<=" : "batch=")
                  << granularity_ << " (sum_bpe=" << sum_bpe_max_
                  << " resident=" << resident_max_ << ")";
    if (sum_bpe_max_ > 0 && granularity_ > 0) {
      EvalStats::MaxInto(stats_.footprint_bytes_max,
                         granularity_ * sum_bpe_max_ + resident_max_);
    }
    std::vector<Task>& tasks = sc_.tasks;
    sc_.task_offsets.assign(static_cast<std::size_t>(threads_) + 1, 0);
    const std::int64_t chunk = (std::max<std::int64_t>(total_, 1) + threads_ - 1) / threads_;
    for (int w = 0; w < threads_; ++w) {
      if (takes_carries_) {
        const auto& mine = TemplateLists()[static_cast<std::size_t>(w)];
        for (std::size_t idx = 0; idx < mine.size(); ++idx) {
          tasks.push_back({w, idx, mine[idx].start, mine[idx].end});
        }
      } else if (total_ == 0) {
        if (w == 0) {
          tasks.push_back({-1, 0, 0, 0});
        }
      } else if (!dynamic_) {
        const std::int64_t lo = std::min<std::int64_t>(total_, w * chunk);
        const std::int64_t hi = std::min<std::int64_t>(total_, lo + chunk);
        for (std::int64_t b = lo; b < hi; b += batch_) {
          tasks.push_back({-1, 0, b, std::min(hi, b + batch_)});
        }
      } else if (w == 0) {
        for (std::int64_t b = 0; b < total_; b += batch_) {
          tasks.push_back({-1, 0, b, std::min(total_, b + batch_)});
        }
      }
      sc_.task_offsets[static_cast<std::size_t>(w) + 1] = tasks.size();
    }
  }

  // ---- the two walks ----

  // Fans the task list out over the pool. The static walk gives each
  // worker its own slice, each batch walked depth by depth through the
  // region while it is cache-hot, then merges the worker's own pieces. The
  // dynamic walk claims (task, depth) runs from the shared queue.
  void Walk() {
    if (dynamic_) {
      sc_.queue.Reset(depths_, sc_.tasks.size());
    }
    sc_.feeds.assign(sc_.tasks.size() * static_cast<std::size_t>(num_feed_slots_), Value());
    FanOut(ex_.pool_, threads_, [&](int t) {
      Scratch::PerWorker& ws = InitWorker(t);
      try {
        if (dynamic_) {
          WalkDynamic(ws, t);
        } else {
          WalkStatic(ws, t);
          PartialMerges(ws, t);
        }
      } catch (...) {
        if (dynamic_) {
          sc_.queue.Poison();
        }
        throw;
      }
      stats_.split_ns.fetch_add(ws.split_ns, std::memory_order_relaxed);
      stats_.task_ns.fetch_add(ws.task_ns, std::memory_order_relaxed);
      stats_.merge_ns.fetch_add(ws.merge_ns, std::memory_order_relaxed);
      stats_.batches.fetch_add(ws.batches, std::memory_order_relaxed);
      if (ws.overlap_ns > 0) {
        stats_.pipeline_overlap_ns.fetch_add(ws.overlap_ns, std::memory_order_relaxed);
      }
    });
  }

  // ---- HandOff ----

  // The region's epilogue, per depth: account in-region feed boundaries,
  // hand carried-out buffers to their (out-of-region) consuming stage, and
  // collect merge jobs. The handoffs are bookkeeping, not merging, so they
  // stay outside the merge timers (merge_ns must measure only actual
  // merges — Fig. 5 stays honest as merges shrink).
  void HandOff() {
    for (int d = 0; d < depths_; ++d) {
      const Stage& stage = StageAt(d);
      Scratch::StageExec& st = ExecAt(d);
      for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
        const StageBuffer& def = stage.buffers[i];
        if (st.bufs[i].feed_consumer >= 0) {
          // In-region feed: the boundary was elided and the pieces were
          // consumed in flight, so only the counters (and a possible
          // deferred merge parked from copies) remain. bytes_merge_avoided
          // is skipped here — the pieces are gone, there is nothing left to
          // size.
          stats_.boundaries_elided.fetch_add(1, std::memory_order_relaxed);
          stats_.carry_pieces.fetch_add(static_cast<std::int64_t>(sc_.tasks.size()),
                                        std::memory_order_relaxed);
          EvalStats::MaxInto(stats_.carry_chain_len_max, chain_in_max_ + 1 + d);
          if (def.deferred_merge) {
            ParkDeferredMerge(d, i);
          }
          graph_.slot(def.slot).pending = false;
          continue;
        }
        if (elide_ && def.carry_out) {
          HandOffCarried(d, i);
          continue;
        }
        if (!def.is_output) {
          // Produced-but-unobserved values: nothing merges them, but the
          // slot must not stay pending.
          if (!def.is_input && !def.is_broadcast) {
            graph_.slot(def.slot).pending = false;
          }
          continue;
        }
        std::vector<Value> parts;
        if (dynamic_) {
          parts = PieceValues(SortedPieces(st.pieces[i], /*consume=*/true));
        } else {
          for (Value& partial : st.partials[i]) {
            if (partial.has_value()) {
              parts.push_back(std::move(partial));
            }
          }
        }
        if (parts.empty()) {
          // Zero-element in-place input: the original value is the result.
          Slot& slot = graph_.slot(def.slot);
          slot.value = st.bufs[i].full;
          slot.pending = false;
          continue;
        }
        MergeJob job;
        job.buf = i;
        job.depth = d;
        job.ms = MergeSplitter(d, i, parts.front());
        job.params = MergeParams(d, i);
        job.parts = std::move(parts);
        jobs_.push_back(std::move(job));
      }
      stats_.nodes_executed.fetch_add(static_cast<std::int64_t>(stage.funcs.size()),
                                      std::memory_order_relaxed);
    }
  }

  // ---- MergeTree ----

  // Final merges (§5.2 step 3, second level) through a parallel merge
  // tree: each job's parts are cut into contiguous adjacent groups
  // (order-preserving for concatenation merges); groups across all jobs
  // form one task list the pool drains (on a 1-thread pool, inline on the
  // caller), then the roots fold the group results — associative merges,
  // the same property the per-worker pre-merge already relies on.
  void MergeTree() {
    if (jobs_.empty()) {
      return;
    }
    std::vector<std::pair<std::size_t, std::size_t>> tasks;  // (job, group)
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      MergeJob& job = jobs_[j];
      const std::size_t groups = std::max<std::size_t>(
          1,
          std::min<std::size_t>(static_cast<std::size_t>(threads_), (job.parts.size() + 1) / 2));
      const std::size_t per = (job.parts.size() + groups - 1) / groups;
      for (std::size_t g = 0; g * per < job.parts.size(); ++g) {
        job.groups.emplace_back(g * per, std::min(job.parts.size(), (g + 1) * per));
        tasks.emplace_back(j, g);
      }
      job.group_results.resize(job.groups.size());
    }
    std::atomic<std::size_t> cursor{0};
    const int width =
        static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads_), tasks.size()));
    FanOut(ex_.pool_, width, [&](int) {
      std::int64_t ns = 0;
      for (;;) {
        const std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
        if (k >= tasks.size()) {
          break;
        }
        const std::int64_t t0 = NowNanos();
        MergeGroup(jobs_[tasks[k].first], tasks[k].second);
        ns += NowNanos() - t0;
      }
      stats_.merge_ns.fetch_add(ns, std::memory_order_relaxed);
    });
    {
      ScopedAccumTimer merge_timer(&stats_.merge_ns);
      for (MergeJob& job : jobs_) {
        job.final_value = job.group_results.size() == 1
                              ? std::move(job.group_results.front())
                              : job.ms->Merge(ExecAt(job.depth).bufs[job.buf].full,
                                              std::move(job.group_results), job.params);
      }
    }
    for (MergeJob& job : jobs_) {
      Slot& slot = graph_.slot(StageAt(job.depth).buffers[job.buf].slot);
      slot.value = std::move(job.final_value);
      slot.pending = false;
    }
  }

 private:
  const Stage& StageAt(int d) const { return *region_[static_cast<std::size_t>(d)]; }
  Scratch::StageExec& ExecAt(int d) { return sc_.stages[static_cast<std::size_t>(d)]; }
  Scratch::StageExec& Entry() { return sc_.stages.front(); }
  PieceTable& TemplateLists() {
    return Entry().bufs[static_cast<std::size_t>(template_buf_)].carried_in.per_worker;
  }

  // Claims the piece set carried into entry buffer i. With single-producer
  // carries the per-worker range lists are identical by construction; with
  // multi-producer carry chains they may differ, and ReconcileCarried
  // re-batches, re-cuts, or materializes stragglers.
  void ClaimCarried(std::size_t i, std::int64_t* carried_total) {
    const SlotId slot = StageAt(0).buffers[i].slot;
    auto it = sc_.carried.find(slot);
    MZ_CHECK_MSG(it != sc_.carried.end(),
                 "stage expects carried pieces for slot " << slot << " but none are in flight");
    CarriedSet& set = Entry().bufs[i].carried_in;
    set = std::move(it->second);
    sc_.carried.erase(it);
    // Dynamic producers emit pieces in claim order; reconciliation and
    // adjacency-based coalescing want each worker's list range-sorted.
    for (auto& per_worker : set.per_worker) {
      SortByStart(per_worker);
    }
    if (template_buf_ < 0) {
      template_buf_ = static_cast<int>(i);
    }
    MZ_THROW_IF(*carried_total >= 0 && *carried_total != set.total,
                "carried piece sets disagree on total elements: " << *carried_total << " vs "
                                                                  << set.total);
    *carried_total = set.total;
    chain_in_max_ = std::max(chain_in_max_, set.chain_len);
    takes_carries_ = true;
  }

  // Wires carried buffer i of depth d to the nearest earlier depth that
  // carries the same slot out, through a dense feed slot id.
  void WireFeed(int d, std::size_t i) {
    const SlotId slot = StageAt(d).buffers[i].slot;
    int src_d = -1;
    int src_b = -1;
    for (int p = d - 1; p >= 0 && src_d < 0; --p) {
      const Stage& prev = StageAt(p);
      for (std::size_t j = 0; j < prev.buffers.size(); ++j) {
        if (prev.buffers[j].slot == slot && prev.buffers[j].carry_out) {
          src_d = p;
          src_b = static_cast<int>(j);
          break;
        }
      }
    }
    MZ_THROW_IF(src_d < 0, "no in-region producer for carried slot " << slot << " at depth "
                                                                     << d);
    BufExec& src = ExecAt(src_d).bufs[static_cast<std::size_t>(src_b)];
    MZ_THROW_IF(src.feed_consumer >= 0,
                "carried slot " << slot << " feeds two in-region consumers");
    src.feed_consumer = d;
    src.feed_id = num_feed_slots_;
    ExecAt(d).bufs[i].src_feed = num_feed_slots_++;
  }

  // Resolves buffer i of depth d as a freshly split input (split type,
  // params, splitter, Info). Also used when a carried set materializes
  // back into a full value during reconciliation.
  void ResolveFreshInput(int d, std::size_t i) {
    const StageBuffer& def = StageAt(d).buffers[i];
    BufExec& b = ExecAt(d).bufs[i];
    const Registry& reg = *ex_.registry_;
    InternedId name = def.split_name;
    if (def.use_default_split) {
      auto dflt = reg.DefaultSplitTypeFor(b.full.type());
      MZ_THROW_IF(!dflt.has_value(),
                  "no default split type registered for C++ type " << b.full.type_name());
      name = *dflt;
    }
    b.params = def.use_default_split || def.params_deferred ? reg.RunLateCtor(name, b.full)
                                                            : def.params;
    b.splitter = reg.FindSplitter(name, b.full.type());
    MZ_THROW_IF(b.splitter == nullptr, "no splitter registered for ("
                                           << InternedName(name) << ", " << b.full.type_name()
                                           << ")");
    b.info = b.splitter->Info(b.full, b.params);
  }

  // Bytes per element that non-broadcast buffer (d, i) keeps live in a
  // batch. Freshly split inputs know theirs from Info() (an interior one
  // reporting none falls back to the hint). Carried entry pieces are live,
  // and a sample piece's Info() beats any static hint (it knows matrix row
  // widths, string columns, corpus doc sizes). Everything else — produced
  // values, in-region feeds — uses the planner's splitter-declared width
  // (elem_bytes_hint).
  std::int64_t ElemBytes(int d, std::size_t i) {
    const StageBuffer& def = StageAt(d).buffers[i];
    const BufExec& b = ExecAt(d).bufs[i];
    if (!b.carried && def.is_input) {
      return d == 0 || b.info.bytes_per_element > 0 ? b.info.bytes_per_element
                                                    : def.elem_bytes_hint;
    }
    const Value* sample =
        d == 0 && b.carried ? FirstPiece(Entry().bufs[i].carried_in.per_worker) : nullptr;
    if (sample != nullptr) {
      try {
        RuntimeInfo info = MergeSplitter(0, i, *sample)->Info(*sample, MergeParams(0, i));
        if (info.bytes_per_element > 0) {
          return info.bytes_per_element;
        }
      } catch (const std::exception&) {
        // Unsizable pieces keep the static hint.
      }
    }
    return def.elem_bytes_hint;
  }

  // Merge parameters: inputs use their (possibly late-constructed) split
  // params; produced buffers use plan-time params unless deferred.
  std::span<const std::int64_t> MergeParams(int d, std::size_t i) {
    const StageBuffer& def = StageAt(d).buffers[i];
    if (def.is_input) {
      return ExecAt(d).bufs[i].params;
    }
    if (def.params_deferred) {
      return {};
    }
    return def.params;
  }

  // Resolves the splitter that merges pieces of buffer (d, i) from the
  // piece type. Returns the owning handle: deferred merges outlive this
  // evaluation and must pin their splitter registration.
  std::shared_ptr<const Splitter> ResolveMergeSplitter(int d, std::size_t i,
                                                       const Value& sample) {
    const StageBuffer& def = StageAt(d).buffers[i];
    const Registry& reg = *ex_.registry_;
    InternedId name = def.split_name;
    if (def.merge_by_piece_type || def.split_name == 0) {
      auto dflt = reg.DefaultSplitTypeFor(sample.type());
      MZ_THROW_IF(!dflt.has_value(), "no default split type for produced value of C++ type "
                                         << sample.type_name());
      name = *dflt;
    }
    std::shared_ptr<const Splitter> s = reg.FindSplitterShared(name, sample.type());
    if (s == nullptr) {
      // Stream-typed buffers can carry pieces of a different C++ type than
      // the stream's origin (e.g. a column extracted from frame pieces,
      // both under one generic). Merge such pieces by their own type's
      // default.
      auto dflt = reg.DefaultSplitTypeFor(sample.type());
      if (dflt.has_value() && *dflt != name) {
        s = reg.FindSplitterShared(*dflt, sample.type());
      }
    }
    MZ_THROW_IF(s == nullptr, "no merge splitter for (" << InternedName(name) << ", "
                                                        << sample.type_name() << ")");
    return s;
  }

  // The input's own splitter when it has one, otherwise the resolved one.
  // Like the input splitters, the raw pointer is used only within this
  // evaluation.
  const Splitter* MergeSplitter(int d, std::size_t i, const Value& sample) {
    const Splitter* own = ExecAt(d).bufs[i].splitter;
    return own != nullptr ? own : ResolveMergeSplitter(d, i, sample).get();
  }

  // Lazy merge-on-get for buffer (d, i), whose slot is pinned by a live
  // Future: parks an ordered copy of the pieces (cheap: Values share
  // holders) plus the merge recipe on the slot. Future::get() — or a later
  // capture referencing the slot — merges on demand; if the Future dies
  // unread, the merge never happens at all.
  void ParkDeferredMerge(int d, std::size_t i) {
    Scratch::StageExec& st = ExecAt(d);
    auto state = std::make_shared<DeferredMergeState>();
    state->pieces = PieceValues(SortedPieces(st.pieces[i], /*consume=*/false));
    if (state->pieces.empty()) {
      return;
    }
    state->splitter = ResolveMergeSplitter(d, i, state->pieces.front());
    state->original = st.bufs[i].full;
    std::span<const std::int64_t> params = MergeParams(d, i);
    state->params.assign(params.begin(), params.end());
    graph_.slot(StageAt(d).buffers[i].slot).deferred = std::move(state);
    stats_.deferred_merges.fetch_add(1, std::memory_order_relaxed);
  }

  // Inherited pieces much larger than this stage's batch overflow its
  // working-set budget (subdivide); much smaller ones pay per-piece
  // overhead (coalesce, but never below one piece per worker — that is the
  // parallelism).
  RebatchOp RebatchDirection() {
    std::int64_t npieces = 0;
    for (const auto& per_worker : TemplateLists()) {
      npieces += static_cast<std::int64_t>(per_worker.size());
    }
    if (total_ <= 0 || npieces <= 0) {
      return RebatchOp::kNone;
    }
    const double avg = static_cast<double>(total_) / static_cast<double>(npieces);
    if (avg > static_cast<double>(batch_) * kRebatchThreshold) {
      return RebatchOp::kSubdivide;
    }
    if (avg * kRebatchThreshold < static_cast<double>(batch_) && npieces > threads_) {
      return RebatchOp::kCoalesce;
    }
    return RebatchOp::kNone;
  }

  CarryCap CapabilityOf(std::size_t i) {
    CarryCap cap;
    const StageBuffer& def = StageAt(0).buffers[i];
    BufExec& b = Entry().bufs[i];
    const Registry& reg = *ex_.registry_;
    if (b.full.has_value()) {
      InternedId name = 0;
      if (!def.use_default_split && !def.params_deferred && def.split_name != 0) {
        name = def.split_name;
      } else if (auto dflt = reg.DefaultSplitTypeFor(b.full.type()); dflt.has_value()) {
        name = *dflt;
      }
      const Splitter* s = name != 0 ? reg.FindSplitter(name, b.full.type()) : nullptr;
      if (s != nullptr && s->traits().merge_is_identity) {
        cap.identity_full = true;
        cap.full_splitter = s;
        if (b.params.empty() && (def.use_default_split || def.params_deferred)) {
          b.params = reg.RunLateCtor(name, b.full);
        }
      }
    }
    if (const Value* sample = FirstPiece(Entry().bufs[i].carried_in.per_worker)) {
      try {
        cap.piece_splitter = MergeSplitter(0, i, *sample);
        cap.piece_subdivide = cap.piece_splitter->traits().can_subdivide;
      } catch (const std::exception&) {
        cap.piece_splitter = nullptr;  // no merge path; identity may still apply
      }
    }
    return cap;
  }

  // Final range structure per worker. Subdivision cuts single pieces,
  // coalescing groups *adjacent* whole pieces; both stay within one
  // worker's list, preserving worker affinity and the order tags that
  // dynamic merges sort by. Returns the largest range length.
  std::int64_t BuildFinalRanges(Rebatch* rb) {
    rb->final_ranges.assign(static_cast<std::size_t>(threads_), {});
    std::int64_t max_len = 0;
    for (int w = 0; w < threads_; ++w) {
      const auto& src = TemplateLists()[static_cast<std::size_t>(w)];
      auto& dst = rb->final_ranges[static_cast<std::size_t>(w)];
      for (std::size_t j = 0; j < src.size();) {
        std::size_t k = j + 1;
        if (rb->op == RebatchOp::kSubdivide && src[j].start < src[j].end) {
          for (std::int64_t s = src[j].start; s < src[j].end; s += batch_) {
            dst.push_back({s, std::min(src[j].end, s + batch_), j, k});
          }
          j = k;
          continue;
        }
        while (rb->op == RebatchOp::kCoalesce && k < src.size() &&
               src[k].start == src[k - 1].end && src[k].end - src[j].start <= batch_) {
          ++k;
        }
        dst.push_back({src[j].start, src[k - 1].end, j, k});
        j = k;
      }
      for (const FinalRange& r : dst) {
        max_len = std::max(max_len, r.end - r.start);
      }
    }
    return max_len;
  }

  // Coverage-aware re-cut (multi-producer carry chains): a non-matching
  // set whose pieces tile [0, total) exactly can be re-cut in place to the
  // template structure through its own splitter — no materialize, no
  // re-split of a merged value. Gaps, overlaps, or empty pieces fail the
  // check and fall back to materializing. The sources are shared-holder
  // copies; the originals stay for that fallback.
  bool GatherRecutSources(Rebatch* rb, std::size_t i) {
    std::vector<OrderedPiece> all;
    for (OrderedPiece& p : SortedPieces(Entry().bufs[i].carried_in.per_worker, false)) {
      if (p.end <= p.start) {
        continue;
      }
      if (!p.piece.has_value()) {
        return false;
      }
      all.push_back(std::move(p));
    }
    if (all.empty() || all.front().start != 0 || all.back().end != total_) {
      return false;
    }
    for (std::size_t k = 1; k < all.size(); ++k) {
      if (all[k].start != all[k - 1].end) {
        return false;
      }
    }
    rb->recut_sources[i] = std::move(all);
    return true;
  }

  // Merges carried buffer i's pieces into its slot value and resolves it
  // as a fresh input again.
  void MaterializeCarried(std::size_t i) {
    BufExec& b = Entry().bufs[i];
    CarriedSet& set = Entry().bufs[i].carried_in;
    std::vector<Value> parts = PieceValues(SortedPieces(set.per_worker, /*consume=*/true));
    if (!parts.empty()) {
      const Splitter* ms = MergeSplitter(0, i, parts.front());
      b.full = ms->Merge(b.full, std::move(parts), MergeParams(0, i));
    }
    MZ_THROW_IF(!b.full.has_value(),
                "cannot materialize carried pieces for slot " << StageAt(0).buffers[i].slot);
    b.carried = false;
    set = CarriedSet{};
    ResolveFreshInput(0, i);
    MZ_THROW_IF(b.info.total_elements != total_,
                "materialized carried value disagrees on total elements: "
                    << b.info.total_elements << " vs " << total_);
  }

  // Rebuilds worker w's pieces of carried buffer i to the final ranges.
  void TransformCarried(const Rebatch& rb, std::size_t i, int w) {
    const SplitContext ctx{w, threads_};
    const auto& ranges = rb.final_ranges[static_cast<std::size_t>(w)];
    auto& old = Entry().bufs[i].carried_in.per_worker[static_cast<std::size_t>(w)];
    std::vector<OrderedPiece> fresh;
    fresh.reserve(ranges.size());
    for (const FinalRange& r : ranges) {
      fresh.push_back({r.start, r.end, RebuiltPiece(rb, i, old, r, ctx)});
    }
    old = std::move(fresh);
  }

  Value RebuiltPiece(const Rebatch& rb, std::size_t i, std::vector<OrderedPiece>& old,
                     const FinalRange& r, const SplitContext& ctx) {
    BufExec& b = Entry().bufs[i];
    const CarryCap& cap = rb.caps[i];
    if (rb.modes[i] == CarryMode::kRebuild) {
      return cap.full_splitter->Split(b.full, r.start, r.end, b.params, ctx);
    }
    if (rb.modes[i] == CarryMode::kRecut) {
      return RecutPiece(rb, i, r, ctx);
    }
    if (rb.op == RebatchOp::kSubdivide) {
      OrderedPiece& src = old[r.src_lo];
      if (r.start == src.start && r.end == src.end) {
        return std::move(src.piece);
      }
      return cap.piece_splitter->Split(src.piece, r.start - src.start, r.end - src.start,
                                       b.params, ctx);
    }
    if (r.src_hi - r.src_lo == 1) {  // coalesce
      return std::move(old[r.src_lo].piece);
    }
    std::vector<Value> group;
    group.reserve(r.src_hi - r.src_lo);
    for (std::size_t j = r.src_lo; j < r.src_hi; ++j) {
      group.push_back(std::move(old[j].piece));
    }
    // b.full is empty for produced owned streams; a splitter whose Merge
    // needs the original gets it when the slot still holds one.
    return cap.piece_splitter->Merge(b.full, std::move(group), MergeParams(0, i));
  }

  // Cuts [r.start, r.end) out of the sorted covering pieces. The sources
  // are shared across workers, so whole-piece reuse copies the Value
  // instead of moving it.
  Value RecutPiece(const Rebatch& rb, std::size_t i, const FinalRange& r,
                   const SplitContext& ctx) {
    const BufExec& b = Entry().bufs[i];
    const Splitter* ps = rb.caps[i].piece_splitter;
    const auto& srcs = rb.recut_sources[i];
    if (r.start >= r.end) {
      return ps->Split(srcs.front().piece, 0, 0, b.params, ctx);
    }
    auto it = std::upper_bound(srcs.begin(), srcs.end(), r.start,
                               [](std::int64_t v, const OrderedPiece& p) { return v < p.end; });
    std::vector<Value> parts;
    for (; it != srcs.end() && it->start < r.end; ++it) {
      const std::int64_t lo = std::max(r.start, it->start);
      const std::int64_t hi = std::min(r.end, it->end);
      parts.push_back(lo == it->start && hi == it->end
                          ? it->piece
                          : ps->Split(it->piece, lo - it->start, hi - it->start, b.params, ctx));
    }
    if (parts.size() == 1) {
      return std::move(parts.front());
    }
    return ps->Merge(b.full, std::move(parts), MergeParams(0, i));
  }

  Scratch::PerWorker& InitWorker(int t) {
    Scratch::PerWorker& ws = sc_.workers[static_cast<std::size_t>(t)];
    ws.cur.resize(static_cast<std::size_t>(depths_));
    for (int d = 0; d < depths_; ++d) {
      const Stage& stage = StageAt(d);
      auto& cur = ws.cur[static_cast<std::size_t>(d)];
      cur.assign(stage.buffers.size(), Value());
      for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
        if (stage.buffers[i].is_broadcast) {
          cur[i] = ExecAt(d).bufs[i].full;
        }
      }
    }
    ws.call_args.clear();
    ws.split_ns = ws.task_ns = ws.merge_ns = ws.overlap_ns = ws.batches = 0;
    return ws;
  }

  void WalkStatic(Scratch::PerWorker& ws, int t) {
    const std::size_t end = sc_.task_offsets[static_cast<std::size_t>(t) + 1];
    for (std::size_t ti = sc_.task_offsets[static_cast<std::size_t>(t)]; ti < end; ++ti) {
      for (int d = 0; d < depths_; ++d) {
        RunBatch(ws, t, d, ti);
      }
    }
  }

  void WalkDynamic(Scratch::PerWorker& ws, int t) {
    int d = 0;
    std::size_t ti = 0;
    while (sc_.queue.Claim(&d, &ti)) {
      RunBatch(ws, t, d, ti);
      sc_.queue.Complete(d, ti);
    }
  }

  // Runs task ti at region depth d on worker t. In-region feed values
  // pass between depths through the task's row of sc_.feeds.
  void RunBatch(Scratch::PerWorker& ws, int t, int d, std::size_t ti) {
    // Batch-boundary cancellation point: a stop thrown here rides the
    // worker error path — first-exception capture plus dynamic-queue
    // poisoning.
    ex_.opts_.cancel.ThrowIfStopped("batch boundary");
    MZ_FAULT("exec.batch");
    const Task& task = sc_.tasks[ti];
    Value* feeds = sc_.feeds.data() + ti * static_cast<std::size_t>(num_feed_slots_);
    const std::int64_t b = task.begin;
    const std::int64_t e = task.end;
    const Stage& stage = StageAt(d);
    Scratch::StageExec& st = ExecAt(d);
    auto& cur = ws.cur[static_cast<std::size_t>(d)];
    const SplitContext ctx{t, threads_};
    const std::int64_t t0 = NowNanos();
    for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
      BufExec& buf = st.bufs[i];
      if (buf.carried) {
        if (d == 0) {
          auto& src = buf.carried_in.per_worker[static_cast<std::size_t>(task.cw)];
          cur[i] = std::move(src[task.cidx].piece);
        } else {
          cur[i] = std::move(feeds[buf.src_feed]);
        }
        MZ_THROW_IF(pedantic_ && !cur[i].has_value(),
                    "pedantic: carried piece for slot " << stage.buffers[i].slot << " range ["
                                                        << b << ", " << e << ") is empty");
      } else if (stage.buffers[i].is_input) {
        MZ_FAULT("exec.split");
        cur[i] = buf.splitter->Split(buf.full, b, e, buf.params, ctx);
        MZ_THROW_IF(pedantic_ && !cur[i].has_value(),
                    "pedantic: Split returned an empty value for slot "
                        << stage.buffers[i].slot << " range [" << b << ", " << e << ")");
      }
    }
    const std::int64_t t1 = NowNanos();
    for (const PlannedFunc& pf : stage.funcs) {
      const Node& node = graph_.nodes()[static_cast<std::size_t>(pf.node_index)];
      ws.call_args.clear();
      for (const PlannedArg& arg : pf.args) {
        ws.call_args.push_back(&cur[static_cast<std::size_t>(arg.buffer)]);
      }
      if (pedantic_) {
        MZ_LOG(Trace) << "batch [" << b << "," << e << ") depth " << d << " thread " << t
                      << ": " << node.ann->func_name();
      }
      Value ret = node.fn->Call(ws.call_args);
      if (pf.ret_buffer >= 0) {
        cur[static_cast<std::size_t>(pf.ret_buffer)] = std::move(ret);
      }
    }
    const std::int64_t t2 = NowNanos();
    for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
      const StageBuffer& def = stage.buffers[i];
      auto& mine = st.pieces[i][static_cast<std::size_t>(t)];
      if (st.bufs[i].feed_consumer >= 0) {
        // In-region feed: the piece stays in flight in the task's feed
        // row. A deferred merge additionally parks a shared-holder copy.
        if (def.deferred_merge) {
          mine.push_back({b, e, cur[i]});
        }
        feeds[st.bufs[i].feed_id] = std::move(cur[i]);
      } else if (def.is_output || (elide_ && def.carry_out)) {
        mine.push_back({b, e, cur[i]});
      }
    }
    ws.split_ns += t1 - t0;
    ws.task_ns += t2 - t1;
    if (d > 0) {
      ws.overlap_ns += t2 - t1;
    }
    ++ws.batches;
  }

  // Per-worker partial merges (§5.2 step 3, first level). Only valid under
  // static scheduling, where a worker's pieces are a contiguous in-order
  // range; dynamic mode defers to a single ordered merge. Carried-out
  // buffers skip merging entirely — their pieces pass on.
  void PartialMerges(Scratch::PerWorker& ws, int t) {
    for (int d = 0; d < depths_; ++d) {
      const Stage& stage = StageAt(d);
      Scratch::StageExec& st = ExecAt(d);
      for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
        const StageBuffer& def = stage.buffers[i];
        std::vector<OrderedPiece>& mine = st.pieces[i][static_cast<std::size_t>(t)];
        if (!def.is_output || (elide_ && def.carry_out) || mine.empty()) {
          continue;
        }
        const std::int64_t t0 = NowNanos();
        std::vector<Value> values;
        values.reserve(mine.size());
        for (OrderedPiece& p : mine) {
          values.push_back(std::move(p.piece));
        }
        mine.clear();
        const Splitter* ms = MergeSplitter(d, i, values.front());
        st.partials[i][static_cast<std::size_t>(t)] =
            ms->Merge(st.bufs[i].full, std::move(values), MergeParams(d, i));
        ws.merge_ns += NowNanos() - t0;
      }
    }
  }

  // Hands buffer (d, i)'s pieces to the consuming stage outside this
  // region. The slot is satisfied by the pieces in flight: identity
  // streams keep their full value, owned streams are consumed wholesale by
  // the next stage and can never be observed merged (unless a deferred
  // merge parks them for a lazy merge-on-get).
  void HandOffCarried(int d, std::size_t i) {
    const StageBuffer& def = StageAt(d).buffers[i];
    PieceTable& pieces = ExecAt(d).pieces[i];
    std::int64_t piece_count = 0;
    for (const auto& per_worker : pieces) {
      piece_count += static_cast<std::int64_t>(per_worker.size());
    }
    stats_.boundaries_elided.fetch_add(1, std::memory_order_relaxed);
    stats_.carry_pieces.fetch_add(piece_count, std::memory_order_relaxed);
    // Best-effort accounting of the merge traffic this elision avoided.
    // Identity merges move no bytes and contribute nothing.
    try {
      const Value* sample = FirstPiece(pieces);
      const Splitter* ms = sample != nullptr ? MergeSplitter(d, i, *sample) : nullptr;
      if (ms != nullptr && !ms->traits().merge_is_identity) {
        std::int64_t bytes = 0;
        for (const auto& per_worker : pieces) {
          for (const OrderedPiece& p : per_worker) {
            if (p.piece.has_value()) {
              RuntimeInfo info = ms->Info(p.piece, {});
              bytes += info.total_elements * info.bytes_per_element;
            }
          }
        }
        stats_.bytes_merge_avoided.fetch_add(bytes, std::memory_order_relaxed);
      }
    } catch (const std::exception&) {
      // Accounting only; a split type that cannot Info() its own pieces
      // simply reports no avoided bytes.
    }
    MZ_CHECK_MSG(sc_.carried.count(def.slot) == 0,
                 "slot " << def.slot << " already has carried pieces in flight");
    if (def.deferred_merge) {
      ParkDeferredMerge(d, i);
    }
    CarriedSet set;
    set.per_worker = std::move(pieces);
    set.total = total_;
    set.chain_len = chain_in_max_ + 1 + d;
    EvalStats::MaxInto(stats_.carry_chain_len_max, set.chain_len);
    sc_.carried.emplace(def.slot, std::move(set));
    graph_.slot(def.slot).pending = false;
  }

  void MergeGroup(MergeJob& job, std::size_t g) {
    ex_.opts_.cancel.ThrowIfStopped("merge");
    MZ_FAULT("exec.merge");
    auto [gb, ge] = job.groups[g];
    std::vector<Value> group;
    group.reserve(ge - gb);
    for (std::size_t p = gb; p < ge; ++p) {
      group.push_back(std::move(job.parts[p]));
    }
    job.group_results[g] =
        job.ms->Merge(ExecAt(job.depth).bufs[job.buf].full, std::move(group), job.params);
  }

  Executor& ex_;
  TaskGraph& graph_;
  EvalStats& stats_;
  const std::vector<const Stage*>& region_;
  Scratch& sc_;
  const int depths_;
  const int threads_;
  const bool elide_;
  const bool dynamic_;
  const bool pedantic_;
  // ResolveBuffers: the region's element total and its carried entry.
  std::int64_t total_ = -1;
  bool takes_carries_ = false;
  int template_buf_ = -1;  // first carried buffer: defines the batch ranges
  int chain_in_max_ = 0;
  int num_feed_slots_ = 0;
  // SizeBatch / ReconcileCarried: the batch, the footprint it came from,
  // and the largest per-batch granularity the region actually runs at (the
  // batch, or the largest carried piece after reconciliation).
  std::int64_t batch_ = 0;
  std::int64_t sum_bpe_max_ = 0;
  std::int64_t resident_max_ = 0;
  std::int64_t granularity_ = 0;
  // HandOff -> MergeTree.
  std::vector<MergeJob> jobs_;
};

Executor::Executor(TaskGraph* graph, const Registry* registry, ThreadPool* pool, ExecOptions opts,
                   EvalStats* stats)
    : graph_(graph),
      registry_(registry),
      pool_(pool),
      opts_(opts),
      stats_(stats),
      scratch_(std::make_unique<Scratch>()) {
  MZ_CHECK(graph != nullptr && registry != nullptr && pool != nullptr && stats != nullptr);
}

Executor::~Executor() = default;

std::int64_t Executor::HeuristicBatchElems(std::int64_t sum_bytes_per_element,
                                           std::int64_t resident_bytes) const {
  if (sum_bytes_per_element <= 0) {
    return 0;
  }
  std::int64_t budget = static_cast<std::int64_t>(opts_.l2_bytes) - resident_bytes;
  if (budget <= 0) {
    // Resident operands (broadcast values) already overflow the cache
    // budget; the smallest batch at least bounds the marginal working set.
    return 1;
  }
  return std::max<std::int64_t>(budget / sum_bytes_per_element, 1);
}

void Executor::Run(const Plan& plan) {
  const std::size_t n = plan.stages.size();
  std::size_t s = 0;
  while (s < n) {
    opts_.cancel.ThrowIfStopped("stage boundary");
    const Stage& stage = plan.stages[s];
    if (stage.serial) {
      RunSerialStage(stage);
      stats_->stages.fetch_add(1, std::memory_order_relaxed);
      ++s;
      continue;
    }
    // Extend a pipelineable region over the run of stages sharing the
    // planner's region id. The knob (and elide_boundaries, which the
    // regions are built from) off degrades every stage to its own
    // single-depth region — exactly the sequential stage loop.
    std::size_t run_end = s + 1;
    if (opts_.pipeline_stages && opts_.elide_boundaries && stage.pipeline_region >= 0) {
      while (run_end < n && !plan.stages[run_end].serial &&
             plan.stages[run_end].pipeline_region == stage.pipeline_region) {
        ++run_end;
      }
    }
    std::vector<const Stage*> region;
    region.reserve(run_end - s);
    for (std::size_t k = s; k < run_end; ++k) {
      region.push_back(&plan.stages[k]);
    }
    RunRegion(region);
    stats_->stages.fetch_add(static_cast<std::int64_t>(run_end - s), std::memory_order_relaxed);
    if (region.size() > 1) {
      stats_->pipeline_regions.fetch_add(1, std::memory_order_relaxed);
    }
    s = run_end;
  }
  MZ_CHECK_MSG(scratch_->carried.empty(), "carried pieces left unconsumed at plan end ("
                                              << scratch_->carried.size() << " slot(s))");
}

void Executor::RunSerialStage(const Stage& stage) {
  ScopedAccumTimer timer(&stats_->task_ns);
  for (const PlannedFunc& pf : stage.funcs) {
    opts_.cancel.ThrowIfStopped("serial stage");
    const Node& node = graph_->nodes()[static_cast<std::size_t>(pf.node_index)];
    std::vector<Value*> args;
    args.reserve(pf.args.size());
    for (const PlannedArg& arg : pf.args) {
      const StageBuffer& buf = stage.buffers[static_cast<std::size_t>(arg.buffer)];
      Slot& slot = graph_->slot(buf.slot);
      MZ_THROW_IF(!slot.value.has_value(),
                  "serial call '" << node.ann->func_name() << "' reads an unmaterialized value");
      args.push_back(&slot.value);
    }
    MZ_LOG(Trace) << "serial call " << node.ann->func_name();
    Value ret = node.fn->Call(args);
    if (pf.ret_buffer >= 0) {
      const StageBuffer& buf = stage.buffers[static_cast<std::size_t>(pf.ret_buffer)];
      Slot& slot = graph_->slot(buf.slot);
      slot.value = std::move(ret);
      slot.pending = false;
    }
    for (std::size_t i = 0; i < node.args.size(); ++i) {
      if (node.ann->args()[i].is_mut) {
        graph_->slot(node.args[i]).pending = false;
      }
    }
    stats_->nodes_executed.fetch_add(1, std::memory_order_relaxed);
  }
}

void Executor::RunRegion(const std::vector<const Stage*>& region) {
  const bool deep = region.size() > 1;
  const std::int64_t fill_t0 = deep ? NowNanos() : 0;
  RegionRun run(this, region);
  run.ResolveBuffers();
  run.SizeBatch();
  if (run.takes_carries()) {
    run.ReconcileCarried();
  }
  run.BuildTasks();
  const std::int64_t fill_t1 = deep ? NowNanos() : 0;
  run.Walk();
  const std::int64_t flush_t0 = deep ? NowNanos() : 0;
  run.HandOff();
  run.MergeTree();
  if (deep) {
    stats_->fill_flush_ns.fetch_add((fill_t1 - fill_t0) + (NowNanos() - flush_t0),
                                    std::memory_order_relaxed);
  }
}

}  // namespace mz
