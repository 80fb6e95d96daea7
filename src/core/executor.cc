#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
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

// First non-empty piece of a per-worker piece table (sample for splitter
// resolution and Info probes); null when every piece is empty.
template <typename PieceLists>
const Value* FirstPiece(const PieceLists& per_worker_lists) {
  for (const auto& per_worker : per_worker_lists) {
    for (const auto& p : per_worker) {
      if (p.piece.has_value()) {
        return &p.piece;
      }
    }
  }
  return nullptr;
}

// Per-buffer execution state resolved at stage start.
struct BufExec {
  const StageBuffer* def = nullptr;
  Value full;  // inputs and broadcasts (and carried identity streams)
  const Splitter* splitter = nullptr;
  std::vector<std::int64_t> params;
  RuntimeInfo info{};
  bool carried = false;  // fed by carried pieces; no Info/Split calls
};

}  // namespace

// Reusable scratch: the per-depth pieces/partials tables and per-worker
// cursors live here so a multi-stage plan reuses their capacity instead of
// reallocating every region.
struct Executor::Scratch {
  // Execution state for one stage of the current region ("depth" = its
  // position within the region; a standalone stage is a region of depth 1).
  struct StageExec {
    std::vector<BufExec> bufs;
    // pieces[buffer][worker] — output pieces tagged with their batch range.
    std::vector<std::vector<std::vector<OrderedPiece>>> pieces;
    std::vector<std::vector<Value>> partials;  // [buffer][worker]
    std::vector<CarriedSet> carried_in;        // depth 0 only
    // In-region piece feeds (pipeline regions): the producer side records
    // which depth consumes its carry_out buffer and a dense feed slot id;
    // the consumer side records where its carried input comes from.
    std::vector<int> feed_consumer;  // producer: consuming depth, -1 = none
    std::vector<int> feed_id;        // producer: dense feed slot id
    std::vector<int> src_depth;      // consumer: producer depth, -1 = none
    std::vector<int> src_buf;        // consumer: producer buffer index
    std::vector<int> src_feed;       // consumer: dense feed slot id
  };
  std::vector<StageExec> stages;
  struct PerWorker {
    std::vector<std::vector<Value>> cur;  // [depth][buffer]
    std::vector<Value*> call_args;
  };
  std::vector<PerWorker> workers;
  // Flattened (worker, index) piece order for dynamic piece-driven stages.
  std::vector<std::pair<int, std::size_t>> flat;

  void Reset(const std::vector<const Stage*>& region, int num_threads) {
    stages.resize(region.size());
    for (std::size_t d = 0; d < region.size(); ++d) {
      StageExec& st = stages[d];
      const std::size_t nb = region[d]->buffers.size();
      st.bufs.assign(nb, BufExec{});
      st.pieces.resize(nb);
      for (auto& per_buffer : st.pieces) {
        per_buffer.resize(static_cast<std::size_t>(num_threads));
        for (auto& per_worker : per_buffer) {
          per_worker.clear();
        }
      }
      st.partials.resize(nb);
      for (auto& per_buffer : st.partials) {
        per_buffer.assign(static_cast<std::size_t>(num_threads), Value());
      }
      st.carried_in.assign(nb, CarriedSet{});
      st.feed_consumer.assign(nb, -1);
      st.feed_id.assign(nb, -1);
      st.src_depth.assign(nb, -1);
      st.src_buf.assign(nb, -1);
      st.src_feed.assign(nb, -1);
    }
    workers.resize(static_cast<std::size_t>(num_threads));
    flat.clear();
  }
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
  MZ_CHECK_MSG(carried_.empty(), "carried pieces left unconsumed at plan end ("
                                     << carried_.size() << " slot(s))");
}

void Executor::RunSerialStage(const Stage& stage) {
  ScopedAccumTimer timer(opts_.collect_stats ? &stats_->task_ns : nullptr);
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
  const int D = static_cast<int>(region.size());
  const int num_threads = pool_->num_threads();
  const bool elide = opts_.elide_boundaries;
  const bool dynamic = opts_.dynamic_scheduling;
  const bool pedantic = opts_.pedantic;
  const bool collect = opts_.collect_stats;
  Scratch& sc = *scratch_;
  sc.Reset(region, num_threads);
  const std::int64_t fill_t0 = (collect && D > 1) ? NowNanos() : 0;

  const Stage& stage0 = *region.front();
  Scratch::StageExec& st0 = sc.stages.front();
  const std::size_t nb = stage0.buffers.size();

  // Claim the piece sets carried into the region's entry stage. With
  // single-producer carries the per-worker range lists are identical by
  // construction; with multi-producer carry chains they may differ, and the
  // reconciliation below re-batches, re-cuts, or materializes stragglers.
  bool takes_carries = false;
  int template_buf = -1;  // first carried buffer: defines the batch ranges
  std::int64_t carried_total = -1;
  int chain_in_max = 0;
  if (elide) {
    for (std::size_t i = 0; i < nb; ++i) {
      if (!stage0.buffers[i].carry_in) {
        continue;
      }
      auto it = carried_.find(stage0.buffers[i].slot);
      MZ_CHECK_MSG(it != carried_.end(), "stage expects carried pieces for slot "
                                             << stage0.buffers[i].slot
                                             << " but none are in flight");
      st0.carried_in[i] = std::move(it->second);
      carried_.erase(it);
      st0.bufs[i].carried = true;
      // Dynamic producers emit pieces in claim order; reconciliation and
      // adjacency-based coalescing want each worker's list range-sorted.
      for (auto& per_worker : st0.carried_in[i].per_worker) {
        std::sort(per_worker.begin(), per_worker.end(),
                  [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
      }
      if (template_buf < 0) {
        template_buf = static_cast<int>(i);
      }
      if (carried_total < 0) {
        carried_total = st0.carried_in[i].total;
      } else {
        MZ_THROW_IF(carried_total != st0.carried_in[i].total,
                    "carried piece sets disagree on total elements: "
                        << carried_total << " vs " << st0.carried_in[i].total);
      }
      chain_in_max = std::max(chain_in_max, st0.carried_in[i].chain_len);
      takes_carries = true;
    }
  }

  // Resolves buffer i of depth d as a freshly split input (split type,
  // params, splitter, Info). Also used when a carried set materializes back
  // into a full value during reconciliation.
  auto resolve_fresh_input_at = [&](int d, std::size_t i) {
    const StageBuffer& def = region[static_cast<std::size_t>(d)]->buffers[i];
    Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
    InternedId name = def.split_name;
    if (def.use_default_split) {
      auto dflt = registry_->DefaultSplitTypeFor(st.bufs[i].full.type());
      MZ_THROW_IF(!dflt.has_value(), "no default split type registered for C++ type "
                                         << st.bufs[i].full.type_name());
      name = *dflt;
      st.bufs[i].params = registry_->RunLateCtor(name, st.bufs[i].full);
    } else if (def.params_deferred) {
      st.bufs[i].params = registry_->RunLateCtor(name, st.bufs[i].full);
    } else {
      st.bufs[i].params = def.params;
    }
    st.bufs[i].splitter = registry_->FindSplitter(name, st.bufs[i].full.type());
    MZ_THROW_IF(st.bufs[i].splitter == nullptr, "no splitter registered for ("
                                                    << InternedName(name) << ", "
                                                    << st.bufs[i].full.type_name() << ")");
    st.bufs[i].info = st.bufs[i].splitter->Info(st.bufs[i].full, st.bufs[i].params);
  };

  std::int64_t total = -1;
  std::int64_t sum_bpe = 0;
  for (std::size_t i = 0; i < nb; ++i) {
    const StageBuffer& def = stage0.buffers[i];
    st0.bufs[i].def = &def;
    if (st0.bufs[i].carried) {
      // Carried inputs skip Info and Split. Keep the slot's full value when
      // it still holds one (identity streams: pieces alias it) so merges
      // and broadcasts that name the original stay correct, and the
      // plan-time params for a possible merge of mutated carried pieces.
      Slot& slot = graph_->slot(def.slot);
      if (slot.value.has_value()) {
        st0.bufs[i].full = slot.value;
      }
      if (!def.use_default_split && !def.params_deferred) {
        st0.bufs[i].params = def.params;
      }
      continue;
    }
    if (!def.is_input && !def.is_broadcast) {
      continue;  // produced in-stage
    }
    Slot& slot = graph_->slot(def.slot);
    MZ_THROW_IF(!slot.value.has_value(), "stage input has no materialized value (slot "
                                             << def.slot << ")");
    st0.bufs[i].full = slot.value;
    if (!def.is_input) {
      continue;
    }
    resolve_fresh_input_at(0, i);
    if (total < 0) {
      total = st0.bufs[i].info.total_elements;
    } else {
      MZ_THROW_IF(total != st0.bufs[i].info.total_elements,
                  "stage inputs disagree on total elements: "
                      << total << " vs " << st0.bufs[i].info.total_elements << " (slot "
                      << def.slot << ")");
    }
    sum_bpe += st0.bufs[i].info.bytes_per_element;
  }
  if (takes_carries) {
    MZ_THROW_IF(total >= 0 && total != carried_total,
                "stage inputs disagree with carried pieces on total elements: "
                    << total << " vs " << carried_total);
    total = carried_total;
  }
  MZ_CHECK_MSG(total >= 0, "non-serial stage with no split inputs");

  // Resolve the interior stages of the region (depth >= 1): every carried
  // split input is fed by an earlier in-region stage (AnnotatePipeline
  // guarantees this), so wire producer -> consumer feed slots instead of
  // claiming from carried_. Fresh split inputs were materialized before the
  // region started (the planner refuses regions over in-region-produced
  // fresh inputs) and split by the in-flight batch ranges, exactly like the
  // entry stage's. Broadcasts read slots the region never writes.
  int num_feed_slots = 0;
  for (int d = 1; d < D; ++d) {
    const Stage& stage = *region[static_cast<std::size_t>(d)];
    Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
      const StageBuffer& def = stage.buffers[i];
      st.bufs[i].def = &def;
      if (def.is_broadcast) {
        Slot& slot = graph_->slot(def.slot);
        MZ_THROW_IF(!slot.value.has_value(),
                    "pipelined stage broadcast has no materialized value (slot " << def.slot
                                                                                << ")");
        st.bufs[i].full = slot.value;
        continue;
      }
      if (!def.is_input) {
        continue;
      }
      if (!def.carry_in) {
        Slot& slot = graph_->slot(def.slot);
        MZ_THROW_IF(!slot.value.has_value(), "pipelined stage input has no materialized value "
                                                 << "(slot " << def.slot << ")");
        st.bufs[i].full = slot.value;
        resolve_fresh_input_at(d, i);
        MZ_THROW_IF(st.bufs[i].info.total_elements != total,
                    "pipelined stage input disagrees with the region on total elements: "
                        << st.bufs[i].info.total_elements << " vs " << total << " (slot "
                        << def.slot << ")");
        continue;
      }
      int src_d = -1;
      int src_b = -1;
      for (int p = d - 1; p >= 0 && src_d < 0; --p) {
        const Stage& prev = *region[static_cast<std::size_t>(p)];
        for (std::size_t j = 0; j < prev.buffers.size(); ++j) {
          if (prev.buffers[j].slot == def.slot && prev.buffers[j].carry_out) {
            src_d = p;
            src_b = static_cast<int>(j);
            break;
          }
        }
      }
      MZ_THROW_IF(src_d < 0,
                  "no in-region producer for carried slot " << def.slot << " at depth " << d);
      Scratch::StageExec& src = sc.stages[static_cast<std::size_t>(src_d)];
      MZ_THROW_IF(src.feed_consumer[static_cast<std::size_t>(src_b)] >= 0,
                  "carried slot " << def.slot << " feeds two in-region consumers");
      src.feed_consumer[static_cast<std::size_t>(src_b)] = d;
      src.feed_id[static_cast<std::size_t>(src_b)] = num_feed_slots;
      st.src_depth[i] = src_d;
      st.src_buf[i] = src_b;
      st.src_feed[i] = num_feed_slots;
      ++num_feed_slots;
      st.bufs[i].carried = true;  // fed in-flight: no Info/Split calls
      Slot& slot = graph_->slot(def.slot);
      if (slot.value.has_value()) {
        st.bufs[i].full = slot.value;
      }
      if (!def.use_default_split && !def.params_deferred) {
        st.bufs[i].params = def.params;
      }
    }
  }

  // Merge parameters: inputs use their (possibly late-constructed) split
  // params; produced buffers use plan-time params unless deferred.
  auto merge_params_for = [&](int d, std::size_t i) -> std::span<const std::int64_t> {
    const StageBuffer& def = region[static_cast<std::size_t>(d)]->buffers[i];
    if (def.is_input) {
      return sc.stages[static_cast<std::size_t>(d)].bufs[i].params;
    }
    if (def.params_deferred) {
      return {};
    }
    return def.params;
  };

  // Resolves the splitter that merges pieces of buffer (d, i) from the piece
  // type. Returns the owning handle: deferred merges outlive this evaluation
  // and must pin their splitter registration.
  auto resolve_merge_splitter = [&](int d, std::size_t i, const Value& sample_piece)
      -> std::shared_ptr<const Splitter> {
    const StageBuffer& def = region[static_cast<std::size_t>(d)]->buffers[i];
    InternedId name = def.split_name;
    if (def.merge_by_piece_type || def.split_name == 0) {
      auto dflt = registry_->DefaultSplitTypeFor(sample_piece.type());
      MZ_THROW_IF(!dflt.has_value(), "no default split type for produced value of C++ type "
                                         << sample_piece.type_name());
      name = *dflt;
    }
    std::shared_ptr<const Splitter> s = registry_->FindSplitterShared(name, sample_piece.type());
    if (s == nullptr) {
      // Stream-typed buffers can carry pieces of a different C++ type than
      // the stream's origin (e.g. a column extracted from frame pieces, both
      // under one generic). Merge such pieces by their own type's default.
      auto dflt = registry_->DefaultSplitTypeFor(sample_piece.type());
      if (dflt.has_value() && *dflt != name) {
        s = registry_->FindSplitterShared(*dflt, sample_piece.type());
      }
    }
    MZ_THROW_IF(s == nullptr, "no merge splitter for (" << InternedName(name) << ", "
                                                        << sample_piece.type_name() << ")");
    return s;
  };

  // The input's own splitter when it has one, otherwise the resolved one.
  // Like the input splitters, the raw pointer is used only within this
  // evaluation.
  auto merge_splitter_for = [&](int d, std::size_t i,
                                const Value& sample_piece) -> const Splitter* {
    const Splitter* own = sc.stages[static_cast<std::size_t>(d)].bufs[i].splitter;
    return own != nullptr ? own : resolve_merge_splitter(d, i, sample_piece).get();
  };

  // Lazy merge-on-get for buffer (d, i), whose slot is pinned by a live
  // Future: parks an ordered copy of the pieces (cheap: Values share holders)
  // plus the merge recipe on the slot. Future::get() — or a later capture
  // referencing the slot — merges on demand; if the Future dies unread, the
  // merge never happens at all.
  auto park_deferred_merge = [&](int d, std::size_t i) {
    Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
    std::vector<OrderedPiece> ordered;
    for (const auto& per_worker : st.pieces[i]) {
      ordered.insert(ordered.end(), per_worker.begin(), per_worker.end());
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
    auto state = std::make_shared<DeferredMergeState>();
    state->pieces.reserve(ordered.size());
    for (OrderedPiece& p : ordered) {
      if (p.piece.has_value()) {
        state->pieces.push_back(std::move(p.piece));
      }
    }
    if (state->pieces.empty()) {
      return;
    }
    state->splitter = resolve_merge_splitter(d, i, state->pieces.front());
    state->original = st.bufs[i].full;
    std::span<const std::int64_t> params = merge_params_for(d, i);
    state->params.assign(params.begin(), params.end());
    graph_->slot(region[static_cast<std::size_t>(d)]->buffers[i].slot).deferred =
        std::move(state);
    stats_->deferred_merges.fetch_add(1, std::memory_order_relaxed);
  };

  // Footprint model (§5.2 extension): produced values and carried pieces
  // are part of the batch's working set too. Carried pieces are live — a
  // sample piece's Info() beats any static hint (it knows matrix row widths,
  // string columns, corpus doc sizes); produced values fall back to the
  // planner's splitter-declared widths (elem_bytes_hint). Broadcast ("_")
  // operands sit cache-resident for the whole stage regardless of the batch
  // size (a hash join's build side), so they charge *resident* bytes that
  // shrink the batch budget instead of per-element bytes. Halo broadcasts
  // (a stencil's source) are read around each batch's band only, so they
  // charge their width per element — unless their element count differs
  // from the region's, when no band correspondence exists and they fall back
  // to the resident charge.
  for (std::size_t i = 0; i < nb; ++i) {
    const StageBuffer& def = stage0.buffers[i];
    if (def.is_broadcast) {
      continue;  // charged below, with the interior stages' broadcasts
    }
    if (!st0.bufs[i].carried && def.is_input) {
      continue;  // fresh inputs already contributed their Info() width
    }
    std::int64_t bpe = def.elem_bytes_hint;
    if (st0.bufs[i].carried) {
      const Value* sample = FirstPiece(st0.carried_in[i].per_worker);
      if (sample != nullptr) {
        try {
          const Splitter* s = merge_splitter_for(0, i, *sample);
          RuntimeInfo piece_info = s->Info(*sample, merge_params_for(0, i));
          if (piece_info.bytes_per_element > 0) {
            bpe = piece_info.bytes_per_element;
          }
        } catch (const std::exception&) {
          // Unsizable pieces keep the static hint.
        }
      }
    }
    sum_bpe += bpe;
  }
  std::int64_t sum_bpe_max = 0;
  std::int64_t resident_max = 0;
  for (int d = 0; d < D; ++d) {
    const Stage& stage = *region[static_cast<std::size_t>(d)];
    Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
    std::int64_t resident = 0;
    std::int64_t stage_bpe = d == 0 ? sum_bpe : 0;
    for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
      const StageBuffer& def = stage.buffers[i];
      if (def.is_broadcast) {
        if (auto info = registry_->ProbeRuntimeInfo(st.bufs[i].full);
            info.has_value() && info->bytes_per_element > 0 && info->total_elements > 0) {
          if (def.is_halo && info->total_elements == total) {
            stage_bpe += info->bytes_per_element;
          } else {
            resident += info->total_elements * info->bytes_per_element;
          }
        }
        continue;
      }
      if (d > 0) {
        // Fresh interior inputs carry a resolved Info(); fed/produced
        // buffers fall back to the planner's splitter-declared width.
        if (st.bufs[i].splitter != nullptr && !st.bufs[i].carried &&
            st.bufs[i].info.bytes_per_element > 0) {
          stage_bpe += st.bufs[i].info.bytes_per_element;
        } else {
          stage_bpe += def.elem_bytes_hint;
        }
      }
    }
    // One batch walks the region depth by depth, so the live working set is
    // the widest stage's, not the sum of all stages'.
    sum_bpe_max = std::max(sum_bpe_max, stage_bpe);
    resident_max = std::max(resident_max, resident);
  }

  // Per-region batch from the footprint maximum. Carried stages need it
  // too: it is the yardstick the re-batching decision measures the
  // inherited piece granularity against.
  std::int64_t batch = opts_.batch_override;
  if (batch <= 0) {
    batch = HeuristicBatchElems(sum_bpe_max, resident_max);
    if (batch == 0) {
      // No buffer reports a memory footprint; fall back to one batch per
      // worker.
      batch = std::max<std::int64_t>(1, (total + num_threads - 1) / num_threads);
    }
  }
  batch = std::clamp<std::int64_t>(batch, 1, std::max<std::int64_t>(total, 1));
  const std::int64_t chunk = (std::max<std::int64_t>(total, 1) + num_threads - 1) / num_threads;

  // Effective per-batch granularity this region actually runs at (for the
  // footprint_bytes_max gauge): the batch size, or the largest carried
  // piece after reconciliation.
  std::int64_t granularity = batch;

  // Reconciles the carried piece sets with this stage's batch choice
  // (footprint-aware re-batching) and with each other (multi-producer carry
  // chains). The template set's ranges define the stage's final batch
  // structure; every other carried buffer is brought to that exact
  // structure — kept as-is, transformed piecewise, rebuilt by re-slicing an
  // identity stream's full value, re-cut from pieces that tile the stream
  // exactly, or (last resort) materialized into the slot and re-split like
  // a fresh input. Returns the largest piece length of the final structure.
  auto reconcile_carried = [&]() -> std::int64_t {
    CarriedSet& tset = st0.carried_in[static_cast<std::size_t>(template_buf)];

    auto same_structure = [](const CarriedSet& a, const CarriedSet& b) {
      if (a.per_worker.size() != b.per_worker.size()) {
        return false;
      }
      for (std::size_t w = 0; w < a.per_worker.size(); ++w) {
        const auto& x = a.per_worker[w];
        const auto& y = b.per_worker[w];
        if (x.size() != y.size()) {
          return false;
        }
        for (std::size_t j = 0; j < x.size(); ++j) {
          if (x[j].start != y[j].start || x[j].end != y[j].end) {
            return false;
          }
        }
      }
      return true;
    };

    std::int64_t npieces = 0;
    for (const auto& per_worker : tset.per_worker) {
      npieces += static_cast<std::int64_t>(per_worker.size());
    }

    // Re-batch direction, measured on the template set: inherited pieces
    // much larger than this stage's batch overflow its working-set budget
    // (subdivide); much smaller ones pay per-piece overhead (coalesce,
    // but never below one piece per worker — that is the parallelism).
    enum class Op { kNone, kSubdivide, kCoalesce };
    Op op = Op::kNone;
    if (total > 0 && npieces > 0) {
      const double avg = static_cast<double>(total) / static_cast<double>(npieces);
      if (avg > static_cast<double>(batch) * kRebatchThreshold) {
        op = Op::kSubdivide;
      } else if (avg * kRebatchThreshold < static_cast<double>(batch) && npieces > num_threads) {
        op = Op::kCoalesce;
      }
    }

    // What each carried buffer can do. Identity streams with a live full
    // value re-slice it at any granularity (pure pointer arithmetic);
    // otherwise pieces subdivide through their own splitter when it
    // declares can_subdivide, and coalesce through their merge.
    struct Cap {
      bool identity_full = false;
      const Splitter* full_splitter = nullptr;
      const Splitter* piece_splitter = nullptr;
      bool piece_subdivide = false;
    };
    auto capability_of = [&](std::size_t i) {
      Cap cap;
      const StageBuffer& def = stage0.buffers[i];
      if (st0.bufs[i].full.has_value()) {
        InternedId name = 0;
        if (!def.use_default_split && !def.params_deferred && def.split_name != 0) {
          name = def.split_name;
        } else if (auto dflt = registry_->DefaultSplitTypeFor(st0.bufs[i].full.type());
                   dflt.has_value()) {
          name = *dflt;
        }
        if (name != 0) {
          const Splitter* s = registry_->FindSplitter(name, st0.bufs[i].full.type());
          if (s != nullptr && s->traits().merge_is_identity) {
            cap.identity_full = true;
            cap.full_splitter = s;
            if (st0.bufs[i].params.empty() && (def.use_default_split || def.params_deferred)) {
              st0.bufs[i].params = registry_->RunLateCtor(name, st0.bufs[i].full);
            }
          }
        }
      }
      if (const Value* sample = FirstPiece(st0.carried_in[i].per_worker)) {
        try {
          cap.piece_splitter = merge_splitter_for(0, i, *sample);
        } catch (const std::exception&) {
          cap.piece_splitter = nullptr;  // no merge path; identity may still apply
        }
        if (cap.piece_splitter != nullptr) {
          cap.piece_subdivide = cap.piece_splitter->traits().can_subdivide;
        }
      }
      return cap;
    };

    std::vector<Cap> caps(nb);
    std::vector<bool> matches(nb, false);
    for (std::size_t i = 0; i < nb; ++i) {
      if (!st0.bufs[i].carried) {
        continue;
      }
      caps[i] = capability_of(i);
      matches[i] = static_cast<int>(i) == template_buf || same_structure(st0.carried_in[i], tset);
    }

    const Cap& tcap = caps[static_cast<std::size_t>(template_buf)];
    if (op == Op::kSubdivide && !(tcap.identity_full || tcap.piece_subdivide)) {
      op = Op::kNone;  // the structure-defining set cannot re-cut: inherit
    }
    if (op == Op::kCoalesce && !(tcap.identity_full || tcap.piece_splitter != nullptr)) {
      op = Op::kNone;
    }

    // Final range structure with provenance into the template set's (sorted)
    // ranges. Subdivision cuts single pieces, coalescing groups *adjacent*
    // whole pieces; both stay within one worker's list, preserving worker
    // affinity and the order tags that dynamic merges sort by.
    struct FinalRange {
      std::int64_t start = 0;
      std::int64_t end = 0;
      std::size_t src_lo = 0;  // [src_lo, src_hi) source piece indices
      std::size_t src_hi = 0;
    };
    std::vector<std::vector<FinalRange>> final_ranges(static_cast<std::size_t>(num_threads));
    std::int64_t max_len = 0;
    for (int w = 0; w < num_threads; ++w) {
      const auto& src = tset.per_worker[static_cast<std::size_t>(w)];
      auto& dst = final_ranges[static_cast<std::size_t>(w)];
      if (op == Op::kSubdivide) {
        for (std::size_t j = 0; j < src.size(); ++j) {
          if (src[j].start >= src[j].end) {
            dst.push_back({src[j].start, src[j].end, j, j + 1});
            continue;
          }
          for (std::int64_t s = src[j].start; s < src[j].end; s += batch) {
            dst.push_back({s, std::min(src[j].end, s + batch), j, j + 1});
          }
        }
      } else if (op == Op::kCoalesce) {
        std::size_t j = 0;
        while (j < src.size()) {
          std::size_t k = j + 1;
          while (k < src.size() && src[k].start == src[k - 1].end &&
                 src[k].end - src[j].start <= batch) {
            ++k;
          }
          dst.push_back({src[j].start, src[k - 1].end, j, k});
          j = k;
        }
      } else {
        for (std::size_t j = 0; j < src.size(); ++j) {
          dst.push_back({src[j].start, src[j].end, j, j + 1});
        }
      }
      for (const FinalRange& r : dst) {
        max_len = std::max(max_len, r.end - r.start);
      }
    }

    // Coverage-aware re-cut (multi-producer carry chains): a non-matching
    // set whose pieces tile [0, total) exactly can be re-cut in place to the
    // template structure through its own splitter — no materialize, no
    // re-split of a merged value. Gaps, overlaps, or empty pieces fail the
    // check and fall back to materializing.
    std::vector<std::vector<OrderedPiece>> recut_sources(nb);
    auto gather_recut_sources = [&](std::size_t i) -> bool {
      std::vector<OrderedPiece> all;
      for (const auto& per_worker : st0.carried_in[i].per_worker) {
        for (const OrderedPiece& p : per_worker) {
          if (p.end <= p.start) {
            continue;
          }
          if (!p.piece.has_value()) {
            return false;
          }
          all.push_back(p);  // shared-holder copy; originals stay for fallback
        }
      }
      if (all.empty()) {
        return false;
      }
      std::sort(all.begin(), all.end(),
                [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
      if (all.front().start != 0 || all.back().end != total) {
        return false;
      }
      for (std::size_t k = 1; k < all.size(); ++k) {
        if (all[k].start != all[k - 1].end) {
          return false;
        }
      }
      recut_sources[i] = std::move(all);
      return true;
    };

    // Per-buffer plan: keep, rebuild from the full value, transform
    // piecewise, re-cut from coverage, or materialize.
    enum class Mode { kKeep, kRebuild, kPiecewise, kRecut, kMaterialize };
    std::vector<Mode> modes(nb, Mode::kKeep);
    bool any_transform = false;
    bool any_rebatch = false;
    int nrecut = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      if (!st0.bufs[i].carried) {
        continue;
      }
      if (matches[i]) {
        if (op == Op::kNone) {
          modes[i] = Mode::kKeep;
        } else if (caps[i].identity_full) {
          modes[i] = Mode::kRebuild;
        } else if (op == Op::kSubdivide ? caps[i].piece_subdivide
                                        : caps[i].piece_splitter != nullptr) {
          modes[i] = Mode::kPiecewise;
        } else {
          modes[i] = Mode::kMaterialize;
        }
      } else {
        // Different producer, different range structure: re-slice identity
        // streams straight to the final structure; owned streams whose
        // pieces provably cover the stream re-cut in place; everything else
        // materializes (sound: merging at consume time is what the
        // non-carried path would have done at the boundary).
        if (caps[i].identity_full) {
          modes[i] = Mode::kRebuild;
        } else if (caps[i].piece_splitter != nullptr && caps[i].piece_subdivide &&
                   gather_recut_sources(i)) {
          modes[i] = Mode::kRecut;
          ++nrecut;
        } else {
          modes[i] = Mode::kMaterialize;
        }
      }
      if (modes[i] == Mode::kRebuild || modes[i] == Mode::kPiecewise ||
          modes[i] == Mode::kRecut) {
        any_transform = true;
        if (matches[i] && op != Op::kNone) {
          any_rebatch = true;
        }
      }
    }

    for (std::size_t i = 0; i < nb; ++i) {
      if (!st0.bufs[i].carried || modes[i] != Mode::kMaterialize) {
        continue;
      }
      CarriedSet& set = st0.carried_in[i];
      std::vector<OrderedPiece> all;
      for (auto& per_worker : set.per_worker) {
        all.insert(all.end(), std::make_move_iterator(per_worker.begin()),
                   std::make_move_iterator(per_worker.end()));
      }
      std::sort(all.begin(), all.end(),
                [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
      std::vector<Value> parts;
      parts.reserve(all.size());
      for (OrderedPiece& p : all) {
        if (p.piece.has_value()) {
          parts.push_back(std::move(p.piece));
        }
      }
      if (!parts.empty()) {
        const Splitter* ms = merge_splitter_for(0, i, parts.front());
        st0.bufs[i].full = ms->Merge(st0.bufs[i].full, std::move(parts), merge_params_for(0, i));
      }
      MZ_THROW_IF(!st0.bufs[i].full.has_value(),
                  "cannot materialize carried pieces for slot " << stage0.buffers[i].slot);
      st0.bufs[i].carried = false;
      set = CarriedSet{};
      resolve_fresh_input_at(0, i);
      MZ_THROW_IF(st0.bufs[i].info.total_elements != total,
                  "materialized carried value disagrees on total elements: "
                      << st0.bufs[i].info.total_elements << " vs " << total);
    }

    if (any_transform) {
      std::mutex rebatch_error_mu;
      std::exception_ptr rebatch_error;
      pool_->RunOnAllWorkers([&](int w) {
        try {
          SplitContext ctx{w, num_threads};
          for (std::size_t i = 0; i < nb; ++i) {
            if (!st0.bufs[i].carried || modes[i] == Mode::kKeep) {
              continue;
            }
            const auto& fr = final_ranges[static_cast<std::size_t>(w)];
            auto& old = st0.carried_in[i].per_worker[static_cast<std::size_t>(w)];
            std::vector<OrderedPiece> fresh;
            fresh.reserve(fr.size());
            for (const FinalRange& r : fr) {
              if (modes[i] == Mode::kRebuild) {
                fresh.push_back({r.start, r.end,
                                 caps[i].full_splitter->Split(st0.bufs[i].full, r.start, r.end,
                                                              st0.bufs[i].params, ctx)});
              } else if (modes[i] == Mode::kRecut) {
                // Cut [r.start, r.end) out of the sorted covering pieces;
                // sources are shared across workers, so whole-piece reuse
                // copies the Value instead of moving it.
                const auto& srcs = recut_sources[i];
                if (r.start >= r.end) {
                  fresh.push_back({r.start, r.end,
                                   caps[i].piece_splitter->Split(srcs.front().piece, 0, 0,
                                                                 st0.bufs[i].params, ctx)});
                  continue;
                }
                auto it = std::upper_bound(
                    srcs.begin(), srcs.end(), r.start,
                    [](std::int64_t v, const OrderedPiece& p) { return v < p.end; });
                std::vector<Value> parts;
                for (; it != srcs.end() && it->start < r.end; ++it) {
                  const std::int64_t lo = std::max(r.start, it->start);
                  const std::int64_t hi = std::min(r.end, it->end);
                  if (lo == it->start && hi == it->end) {
                    parts.push_back(it->piece);
                  } else {
                    parts.push_back(caps[i].piece_splitter->Split(
                        it->piece, lo - it->start, hi - it->start, st0.bufs[i].params, ctx));
                  }
                }
                if (parts.size() == 1) {
                  fresh.push_back({r.start, r.end, std::move(parts.front())});
                } else {
                  fresh.push_back({r.start, r.end,
                                   caps[i].piece_splitter->Merge(st0.bufs[i].full,
                                                                 std::move(parts),
                                                                 merge_params_for(0, i))});
                }
              } else if (op == Op::kSubdivide) {
                OrderedPiece& src = old[r.src_lo];
                if (r.start == src.start && r.end == src.end) {
                  fresh.push_back({r.start, r.end, std::move(src.piece)});
                } else {
                  fresh.push_back(
                      {r.start, r.end,
                       caps[i].piece_splitter->Split(src.piece, r.start - src.start,
                                                     r.end - src.start, st0.bufs[i].params,
                                                     ctx)});
                }
              } else {  // coalesce
                if (r.src_hi - r.src_lo == 1) {
                  fresh.push_back({r.start, r.end, std::move(old[r.src_lo].piece)});
                } else {
                  std::vector<Value> group;
                  group.reserve(r.src_hi - r.src_lo);
                  for (std::size_t j = r.src_lo; j < r.src_hi; ++j) {
                    group.push_back(std::move(old[j].piece));
                  }
                  // st0.bufs[i].full is empty for produced owned streams; a
                  // splitter whose Merge needs the original gets it when the
                  // slot still holds one.
                  fresh.push_back(
                      {r.start, r.end,
                       caps[i].piece_splitter->Merge(st0.bufs[i].full, std::move(group),
                                                     merge_params_for(0, i))});
                }
              }
            }
            old = std::move(fresh);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(rebatch_error_mu);
          if (!rebatch_error) {
            rebatch_error = std::current_exception();
          }
        }
      });
      if (rebatch_error) {
        std::rethrow_exception(rebatch_error);
      }
    }
    if (any_rebatch) {
      stats_->stages_rebatched.fetch_add(1, std::memory_order_relaxed);
    }
    if (nrecut > 0) {
      stats_->carried_recuts.fetch_add(nrecut, std::memory_order_relaxed);
    }
    return std::max<std::int64_t>(max_len, 1);
  };

  if (takes_carries) {
    granularity = reconcile_carried();
    // Piece-driven: the (reconciled) carried ranges define the batch
    // structure. Dynamic single-stage workers steal from the flattened
    // piece list; deeper regions use the per-(batch, depth) task queue.
    if (dynamic && D == 1 && template_buf >= 0) {
      const auto& lists = st0.carried_in[static_cast<std::size_t>(template_buf)].per_worker;
      for (std::size_t w = 0; w < lists.size(); ++w) {
        for (std::size_t idx = 0; idx < lists[w].size(); ++idx) {
          sc.flat.emplace_back(static_cast<int>(w), idx);
        }
      }
    }
    MZ_LOG(Debug) << "region[" << D << "]: " << stage0.funcs.size() << " entry funcs, total="
                  << total << " elems, piece-driven (carried, granularity<=" << granularity
                  << ")";
  } else {
    MZ_LOG(Debug) << "region[" << D << "]: " << stage0.funcs.size() << " entry funcs, total="
                  << total << " elems, batch=" << batch << " (sum_bpe=" << sum_bpe_max
                  << " resident=" << resident_max << ")";
  }
  if (collect && sum_bpe_max > 0 && granularity > 0) {
    EvalStats::MaxInto(stats_->footprint_bytes_max, granularity * sum_bpe_max + resident_max);
  }

  std::atomic<std::int64_t> cursor{0};       // dynamic mode: next unclaimed batch
  std::atomic<std::size_t> piece_cursor{0};  // dynamic carried mode (D == 1)
  std::atomic<std::int64_t> batch_runs{0};   // depth-0 batches actually run

  // Dynamic scheduling across a deeper region: a per-(batch, depth) task
  // queue. Each task walks one depth-0 batch through the region; workers
  // claim the deepest ready task first, so downstream compute and merges
  // drain while upstream batches are still being produced. Feed values
  // travel in the task's dense feed slots (any worker may run any depth).
  struct DynTask {
    int cw = -1;
    std::size_t cidx = 0;
    std::int64_t b = 0;
    std::int64_t e = 0;
  };
  const bool use_queue = dynamic && D > 1;
  std::vector<DynTask> dtasks;
  std::vector<std::vector<Value>> dyn_vals;
  std::mutex qmu;
  std::condition_variable qcv;
  std::vector<std::vector<std::size_t>> ready(static_cast<std::size_t>(D));
  std::size_t q_completed = 0;
  bool q_failed = false;
  if (use_queue) {
    if (takes_carries) {
      const auto& lists = st0.carried_in[static_cast<std::size_t>(template_buf)].per_worker;
      for (std::size_t w = 0; w < lists.size(); ++w) {
        for (std::size_t idx = 0; idx < lists[w].size(); ++idx) {
          dtasks.push_back({static_cast<int>(w), idx, lists[w][idx].start, lists[w][idx].end});
        }
      }
    } else if (total == 0) {
      dtasks.push_back({-1, 0, 0, 0});
    } else {
      for (std::int64_t b = 0; b < total; b += batch) {
        dtasks.push_back({-1, 0, b, std::min(total, b + batch)});
      }
    }
    dyn_vals.assign(dtasks.size(), {});
    for (auto& vals : dyn_vals) {
      vals.assign(static_cast<std::size_t>(num_feed_slots), Value());
    }
    ready[0].reserve(dtasks.size());
    for (std::size_t ti = 0; ti < dtasks.size(); ++ti) {
      ready[0].push_back(ti);
    }
  }
  const std::size_t q_total = dtasks.size() * static_cast<std::size_t>(D);

  const std::int64_t fill_t1 = (collect && D > 1) ? NowNanos() : 0;

  std::mutex error_mu;
  std::exception_ptr first_error;

  pool_->RunOnAllWorkers([&](int t) {
    try {
      SplitContext ctx{t, num_threads};
      Scratch::PerWorker& ws = sc.workers[static_cast<std::size_t>(t)];
      ws.cur.resize(static_cast<std::size_t>(D));
      for (int d = 0; d < D; ++d) {
        const Stage& stage = *region[static_cast<std::size_t>(d)];
        auto& cur = ws.cur[static_cast<std::size_t>(d)];
        cur.assign(stage.buffers.size(), Value());
        for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
          if (stage.buffers[i].is_broadcast) {
            cur[i] = sc.stages[static_cast<std::size_t>(d)].bufs[i].full;
          }
        }
      }
      ws.call_args.clear();
      std::int64_t split_ns = 0;
      std::int64_t task_ns = 0;
      std::int64_t merge_ns = 0;
      std::int64_t overlap_ns = 0;
      std::int64_t batches = 0;

      // Runs the batch [b, e) at region depth d. cw/cidx locate the carried
      // pieces feeding a depth-0 batch (cw < 0 for range-driven stages);
      // `vals` is the dynamic queue's feed-slot storage (null under the
      // static walk, where feed values stay in this worker's ws.cur).
      auto run_batch = [&](int d, std::int64_t b, std::int64_t e, int cw, std::size_t cidx,
                           std::vector<Value>* vals) {
        // Batch-boundary cancellation point: a stop thrown here rides the
        // worker catch-all below — first_error capture plus dynamic-queue
        // poisoning — so both schedules unwind through the PR 6 machinery.
        opts_.cancel.ThrowIfStopped("batch boundary");
        MZ_FAULT("exec.batch");
        const Stage& stage = *region[static_cast<std::size_t>(d)];
        Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
        auto& cur = ws.cur[static_cast<std::size_t>(d)];
        const std::size_t nbufs = stage.buffers.size();
        std::int64_t t0 = collect ? NowNanos() : 0;
        for (std::size_t i = 0; i < nbufs; ++i) {
          if (d == 0 && st.bufs[i].carried) {
            OrderedPiece& carried =
                st.carried_in[i].per_worker[static_cast<std::size_t>(cw)][cidx];
            if (pedantic) {
              MZ_THROW_IF(!carried.piece.has_value(),
                          "pedantic: carried piece for slot " << stage.buffers[i].slot
                                                              << " range [" << b << ", " << e
                                                              << ") is empty");
            }
            cur[i] = std::move(carried.piece);
            continue;
          }
          if (d > 0 && st.src_depth[i] >= 0) {
            // Fed in-flight from the in-region producer: the task's feed
            // slot under the dynamic queue, this worker's cursor row under
            // the static walk (the same worker ran the producer depth).
            cur[i] = vals != nullptr
                         ? std::move((*vals)[static_cast<std::size_t>(st.src_feed[i])])
                         : std::move(ws.cur[static_cast<std::size_t>(st.src_depth[i])]
                                           [static_cast<std::size_t>(st.src_buf[i])]);
            if (pedantic) {
              MZ_THROW_IF(!cur[i].has_value(), "pedantic: fed piece for slot "
                                                   << stage.buffers[i].slot << " range [" << b
                                                   << ", " << e << ") is empty");
            }
            continue;
          }
          if (!stage.buffers[i].is_input) {
            continue;
          }
          MZ_FAULT("exec.split");
          cur[i] = st.bufs[i].splitter->Split(st.bufs[i].full, b, e, st.bufs[i].params, ctx);
          if (pedantic) {
            MZ_THROW_IF(!cur[i].has_value(), "pedantic: Split returned an empty value for slot "
                                                 << stage.buffers[i].slot << " range [" << b
                                                 << ", " << e << ")");
          }
        }
        std::int64_t t1 = collect ? NowNanos() : 0;
        for (const PlannedFunc& pf : stage.funcs) {
          const Node& node = graph_->nodes()[static_cast<std::size_t>(pf.node_index)];
          ws.call_args.clear();
          for (const PlannedArg& arg : pf.args) {
            ws.call_args.push_back(&cur[static_cast<std::size_t>(arg.buffer)]);
          }
          if (pedantic) {
            MZ_LOG(Trace) << "batch [" << b << "," << e << ") depth " << d << " thread " << t
                          << ": " << node.ann->func_name();
          }
          Value ret = node.fn->Call(ws.call_args);
          if (pf.ret_buffer >= 0) {
            cur[static_cast<std::size_t>(pf.ret_buffer)] = std::move(ret);
          }
        }
        std::int64_t t2 = collect ? NowNanos() : 0;
        for (std::size_t i = 0; i < nbufs; ++i) {
          const StageBuffer& def = stage.buffers[i];
          if (st.feed_consumer[i] >= 0) {
            // In-region feed: the piece stays in flight (ws.cur for the
            // static walk, the task's feed slots for the dynamic queue). A
            // deferred merge additionally parks a shared-holder copy.
            if (def.deferred_merge) {
              st.pieces[i][static_cast<std::size_t>(t)].push_back({b, e, cur[i]});
            }
            if (vals != nullptr) {
              (*vals)[static_cast<std::size_t>(st.feed_id[i])] = std::move(cur[i]);
            }
            continue;
          }
          if (def.is_output || (elide && def.carry_out)) {
            st.pieces[i][static_cast<std::size_t>(t)].push_back({b, e, cur[i]});
          }
        }
        if (collect) {
          split_ns += t1 - t0;
          task_ns += t2 - t1;
          if (d > 0) {
            overlap_ns += t2 - t1;
          }
        }
        if (d == 0) {
          batch_runs.fetch_add(1, std::memory_order_relaxed);
        }
        ++batches;
      };

      if (use_queue) {
        std::unique_lock<std::mutex> lk(qmu);
        for (;;) {
          qcv.wait(lk, [&] {
            if (q_failed || q_completed == q_total) {
              return true;
            }
            for (int d = D - 1; d >= 0; --d) {
              if (!ready[static_cast<std::size_t>(d)].empty()) {
                return true;
              }
            }
            return false;
          });
          if (q_failed || q_completed == q_total) {
            break;
          }
          int d = 0;
          std::size_t ti = 0;
          for (int dd = D - 1; dd >= 0; --dd) {
            auto& bucket = ready[static_cast<std::size_t>(dd)];
            if (!bucket.empty()) {
              d = dd;
              ti = bucket.back();
              bucket.pop_back();
              break;
            }
          }
          lk.unlock();
          const DynTask& task = dtasks[ti];
          run_batch(d, task.b, task.e, task.cw, task.cidx, &dyn_vals[ti]);
          lk.lock();
          ++q_completed;
          if (d + 1 < D) {
            ready[static_cast<std::size_t>(d + 1)].push_back(ti);
            qcv.notify_one();
          } else if (q_completed == q_total) {
            qcv.notify_all();
          }
        }
      } else if (takes_carries) {
        const auto& lists = st0.carried_in[static_cast<std::size_t>(template_buf)].per_worker;
        if (dynamic) {  // D == 1: work stealing over the flattened piece list
          for (;;) {
            std::size_t j = piece_cursor.fetch_add(1, std::memory_order_relaxed);
            if (j >= sc.flat.size()) {
              break;
            }
            auto [w, idx] = sc.flat[j];
            const OrderedPiece& tp = lists[static_cast<std::size_t>(w)][idx];
            run_batch(0, tp.start, tp.end, w, idx, nullptr);
          }
        } else {
          // Static: each worker consumes the pieces it produced last stage —
          // same contiguous in-order range, same cache affinity — walking
          // every batch through the whole region while it is cache-hot.
          const auto& mine = lists[static_cast<std::size_t>(t)];
          for (std::size_t idx = 0; idx < mine.size(); ++idx) {
            for (int d = 0; d < D; ++d) {
              run_batch(d, mine[idx].start, mine[idx].end, t, idx, nullptr);
            }
          }
        }
      } else if (total == 0) {
        // Run one empty batch on worker 0 so produced values keep their
        // schema (e.g. an empty DataFrame with the right columns).
        if (t == 0) {
          for (int d = 0; d < D; ++d) {
            run_batch(d, 0, 0, -1, 0, nullptr);
          }
        }
      } else if (dynamic) {  // D == 1: claim the next unprocessed batch
        for (;;) {
          std::int64_t b = cursor.fetch_add(batch, std::memory_order_relaxed);
          if (b >= total) {
            break;
          }
          run_batch(0, b, std::min(total, b + batch), -1, 0, nullptr);
        }
      } else {
        // Static partitioning (§5.2): one contiguous range per worker,
        // each batch walked depth by depth through the region.
        std::int64_t lo = std::min<std::int64_t>(total, static_cast<std::int64_t>(t) * chunk);
        std::int64_t hi = std::min<std::int64_t>(total, lo + chunk);
        for (std::int64_t b = lo; b < hi; b += batch) {
          for (int d = 0; d < D; ++d) {
            run_batch(d, b, std::min(hi, b + batch), -1, 0, nullptr);
          }
        }
      }

      // Per-worker partial merges (§5.2 step 3, first level). Only valid
      // under static scheduling, where a worker's pieces are a contiguous
      // in-order range; dynamic mode defers to a single ordered merge.
      // Carried-out buffers skip merging entirely — their pieces pass on.
      if (!dynamic) {
        for (int d = 0; d < D; ++d) {
          const Stage& stage = *region[static_cast<std::size_t>(d)];
          Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
          for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
            const StageBuffer& def = stage.buffers[i];
            if (!def.is_output || (elide && def.carry_out)) {
              continue;
            }
            std::vector<OrderedPiece>& mine = st.pieces[i][static_cast<std::size_t>(t)];
            if (mine.empty()) {
              continue;
            }
            std::int64_t t3 = collect ? NowNanos() : 0;
            std::vector<Value> values;
            values.reserve(mine.size());
            for (OrderedPiece& p : mine) {
              values.push_back(std::move(p.piece));
            }
            const Splitter* ms = merge_splitter_for(d, i, values.front());
            st.partials[i][static_cast<std::size_t>(t)] =
                ms->Merge(st.bufs[i].full, std::move(values), merge_params_for(d, i));
            mine.clear();
            if (collect) {
              merge_ns += NowNanos() - t3;
            }
          }
        }
      }
      if (collect) {
        stats_->split_ns.fetch_add(split_ns, std::memory_order_relaxed);
        stats_->task_ns.fetch_add(task_ns, std::memory_order_relaxed);
        stats_->merge_ns.fetch_add(merge_ns, std::memory_order_relaxed);
        stats_->batches.fetch_add(batches, std::memory_order_relaxed);
        if (overlap_ns > 0) {
          stats_->pipeline_overlap_ns.fetch_add(overlap_ns, std::memory_order_relaxed);
        }
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      if (use_queue) {
        std::lock_guard<std::mutex> qlk(qmu);
        q_failed = true;
        qcv.notify_all();
      }
    }
  });

  if (first_error) {
    std::rethrow_exception(first_error);
  }

  const std::int64_t flush_t0 = (collect && D > 1) ? NowNanos() : 0;
  const std::int64_t nbatches = batch_runs.load(std::memory_order_relaxed);

  // Epilogue, per depth: account in-region feed boundaries, hand carried-out
  // buffers to their (out-of-region) consuming stage, and collect merge
  // jobs. The handoffs are bookkeeping, not merging, so they stay outside
  // the merge timers (merge_ns must measure only actual merges — Fig. 5
  // stays honest as merges shrink).
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
  std::vector<MergeJob> jobs;
  for (int d = 0; d < D; ++d) {
    const Stage& stage = *region[static_cast<std::size_t>(d)];
    Scratch::StageExec& st = sc.stages[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < stage.buffers.size(); ++i) {
      const StageBuffer& def = stage.buffers[i];
      if (st.feed_consumer[i] >= 0) {
        // In-region feed: the boundary was elided and the pieces were
        // consumed in flight, so only the counters (and a possible deferred
        // merge parked from copies) remain. bytes_merge_avoided is skipped
        // here — the pieces are gone, there is nothing left to size.
        stats_->boundaries_elided.fetch_add(1, std::memory_order_relaxed);
        stats_->carry_pieces.fetch_add(nbatches, std::memory_order_relaxed);
        EvalStats::MaxInto(stats_->carry_chain_len_max, chain_in_max + 1 + d);
        if (def.deferred_merge) {
          park_deferred_merge(d, i);
        }
        graph_->slot(def.slot).pending = false;
        continue;
      }
      if (elide && def.carry_out) {
        // Hand the pieces to the consuming stage outside this region.
        std::int64_t piece_count = 0;
        for (const auto& per_worker : st.pieces[i]) {
          piece_count += static_cast<std::int64_t>(per_worker.size());
        }
        stats_->boundaries_elided.fetch_add(1, std::memory_order_relaxed);
        stats_->carry_pieces.fetch_add(piece_count, std::memory_order_relaxed);
        if (collect) {
          // Best-effort accounting of the merge traffic this elision
          // avoided. Identity merges move no bytes and contribute nothing.
          try {
            const Value* sample = FirstPiece(st.pieces[i]);
            if (sample != nullptr) {
              const Splitter* ms = merge_splitter_for(d, i, *sample);
              if (!ms->traits().merge_is_identity) {
                std::int64_t bytes = 0;
                for (const auto& per_worker : st.pieces[i]) {
                  for (const OrderedPiece& p : per_worker) {
                    if (!p.piece.has_value()) {
                      continue;
                    }
                    RuntimeInfo info = ms->Info(p.piece, {});
                    bytes += info.total_elements * info.bytes_per_element;
                  }
                }
                stats_->bytes_merge_avoided.fetch_add(bytes, std::memory_order_relaxed);
              }
            }
          } catch (const std::exception&) {
            // Accounting only; a split type that cannot Info() its own
            // pieces simply reports no avoided bytes.
          }
        }
        MZ_CHECK_MSG(carried_.count(def.slot) == 0,
                     "slot " << def.slot << " already has carried pieces in flight");
        if (def.deferred_merge) {
          park_deferred_merge(d, i);
        }
        CarriedSet set;
        set.per_worker = std::move(st.pieces[i]);
        set.total = total;
        set.chain_len = chain_in_max + 1 + d;
        EvalStats::MaxInto(stats_->carry_chain_len_max, set.chain_len);
        carried_.emplace(def.slot, std::move(set));
        // The slot is satisfied by the pieces in flight: identity streams
        // keep their full value, owned streams are consumed wholesale by
        // the next stage and can never be observed merged (unless a
        // deferred merge parked them above for a lazy merge-on-get).
        graph_->slot(def.slot).pending = false;
        continue;
      }
      if (!def.is_output) {
        // Produced-but-unobserved values: nothing merges them, but the slot
        // must not stay pending.
        if (!def.is_input && !def.is_broadcast) {
          graph_->slot(def.slot).pending = false;
        }
        continue;
      }
      std::vector<Value> parts;
      if (dynamic) {
        std::vector<OrderedPiece> all;
        for (int w = 0; w < num_threads; ++w) {
          auto& mine = st.pieces[i][static_cast<std::size_t>(w)];
          all.insert(all.end(), std::make_move_iterator(mine.begin()),
                     std::make_move_iterator(mine.end()));
          mine.clear();
        }
        std::sort(all.begin(), all.end(),
                  [](const OrderedPiece& a, const OrderedPiece& b) { return a.start < b.start; });
        parts.reserve(all.size());
        for (OrderedPiece& p : all) {
          parts.push_back(std::move(p.piece));
        }
      } else {
        parts.reserve(static_cast<std::size_t>(num_threads));
        for (int w = 0; w < num_threads; ++w) {
          if (st.partials[i][static_cast<std::size_t>(w)].has_value()) {
            parts.push_back(std::move(st.partials[i][static_cast<std::size_t>(w)]));
          }
        }
      }
      if (parts.empty()) {
        // Zero-element in-place input: the original value is the result.
        Slot& slot = graph_->slot(def.slot);
        slot.value = st.bufs[i].full;
        slot.pending = false;
        continue;
      }
      MergeJob job;
      job.buf = i;
      job.depth = d;
      job.ms = merge_splitter_for(d, i, parts.front());
      job.params = merge_params_for(d, i);
      job.parts = std::move(parts);
      jobs.push_back(std::move(job));
    }
    stats_->nodes_executed.fetch_add(static_cast<std::int64_t>(stage.funcs.size()),
                                     std::memory_order_relaxed);
  }

  if (!jobs.empty()) {
    // Final merges (§5.2 step 3, second level) through a parallel merge
    // tree: each job's parts are cut into contiguous adjacent groups
    // (order-preserving for concatenation merges); groups across all jobs
    // form one task list the pool drains, then the roots fold the group
    // results. Single-part jobs and 1-thread pools collapse to the direct
    // k-ary merge.
    std::size_t num_tasks = 0;
    for (MergeJob& job : jobs) {
      std::size_t groups =
          std::min<std::size_t>(static_cast<std::size_t>(std::max(num_threads, 1)),
                                (job.parts.size() + 1) / 2);
      groups = std::max<std::size_t>(groups, 1);
      std::size_t per = (job.parts.size() + groups - 1) / groups;
      for (std::size_t g = 0; g * per < job.parts.size(); ++g) {
        job.groups.emplace_back(g * per, std::min(job.parts.size(), (g + 1) * per));
      }
      job.group_results.resize(job.groups.size());
      num_tasks += job.groups.size();
    }

    auto merge_group = [&](MergeJob& job, std::size_t g) {
      opts_.cancel.ThrowIfStopped("merge");
      MZ_FAULT("exec.merge");
      auto [gb, ge] = job.groups[g];
      std::vector<Value> group;
      group.reserve(ge - gb);
      for (std::size_t p = gb; p < ge; ++p) {
        group.push_back(std::move(job.parts[p]));
      }
      job.group_results[g] =
          job.ms->Merge(sc.stages[static_cast<std::size_t>(job.depth)].bufs[job.buf].full,
                        std::move(group), job.params);
    };

    if (num_threads > 1 && num_tasks > 1) {
      // Fan the group merges out: (job, group) pairs claimed via a shared
      // cursor. Worker 0 is the calling thread (RunOnWorkers).
      std::vector<std::pair<std::size_t, std::size_t>> tasks;
      tasks.reserve(num_tasks);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (std::size_t g = 0; g < jobs[j].groups.size(); ++g) {
          tasks.emplace_back(j, g);
        }
      }
      std::atomic<std::size_t> task_cursor{0};
      std::mutex merge_error_mu;
      std::exception_ptr merge_error;
      pool_->RunOnWorkers(static_cast<int>(std::min<std::size_t>(
                              static_cast<std::size_t>(num_threads), tasks.size())),
                          [&](int) {
                            std::int64_t ns = 0;
                            try {
                              for (;;) {
                                std::size_t j =
                                    task_cursor.fetch_add(1, std::memory_order_relaxed);
                                if (j >= tasks.size()) {
                                  break;
                                }
                                std::int64_t t0 = collect ? NowNanos() : 0;
                                merge_group(jobs[tasks[j].first], tasks[j].second);
                                if (collect) {
                                  ns += NowNanos() - t0;
                                }
                              }
                            } catch (...) {
                              std::lock_guard<std::mutex> lock(merge_error_mu);
                              if (!merge_error) {
                                merge_error = std::current_exception();
                              }
                            }
                            if (collect) {
                              stats_->merge_ns.fetch_add(ns, std::memory_order_relaxed);
                            }
                          });
      if (merge_error) {
        std::rethrow_exception(merge_error);
      }
    } else {
      ScopedAccumTimer merge_timer(collect ? &stats_->merge_ns : nullptr);
      for (MergeJob& job : jobs) {
        for (std::size_t g = 0; g < job.groups.size(); ++g) {
          merge_group(job, g);
        }
      }
    }

    // Root merges: fold each job's group results (associative merges — the
    // same property the per-worker pre-merge already relies on).
    {
      ScopedAccumTimer merge_timer(collect ? &stats_->merge_ns : nullptr);
      for (MergeJob& job : jobs) {
        if (job.group_results.size() == 1) {
          job.final_value = std::move(job.group_results.front());
        } else {
          job.final_value =
              job.ms->Merge(sc.stages[static_cast<std::size_t>(job.depth)].bufs[job.buf].full,
                            std::move(job.group_results), job.params);
        }
      }
    }
    for (MergeJob& job : jobs) {
      Slot& slot =
          graph_->slot(region[static_cast<std::size_t>(job.depth)]->buffers[job.buf].slot);
      slot.value = std::move(job.final_value);
      slot.pending = false;
    }
  }

  if (collect && D > 1) {
    stats_->fill_flush_ns.fetch_add((fill_t1 - fill_t0) + (NowNanos() - flush_t0),
                                    std::memory_order_relaxed);
  }
}

}  // namespace mz
