#include "core/planner.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/logging.h"

namespace mz {

Planner::Planner(const TaskGraph& graph, const Registry& registry, bool pipeline)
    : graph_(graph), registry_(registry), pipeline_(pipeline) {}

int Planner::NewClass() {
  Class c;
  c.parent = static_cast<int>(classes_.size());
  classes_.push_back(c);
  return c.parent;
}

int Planner::Find(int c) {
  while (classes_[static_cast<std::size_t>(c)].parent != c) {
    int parent = classes_[static_cast<std::size_t>(c)].parent;
    classes_[static_cast<std::size_t>(c)].parent =
        classes_[static_cast<std::size_t>(parent)].parent;
    c = parent;
  }
  return c;
}

void Planner::SoftUnify(int a, int b) {
  int ra = Find(a);
  int rb = Find(b);
  if (ra == rb) {
    return;
  }
  Class& ca = classes_[static_cast<std::size_t>(ra)];
  Class& cb = classes_[static_cast<std::size_t>(rb)];
  if (ca.bound && cb.bound) {
    if (ca.type == cb.type) {
      cb.parent = ra;
    }
    // Unequal concrete types: leave un-unified; the scan turns this into a
    // stage break (merge + re-split), not an error.
    return;
  }
  if (ca.bound != cb.bound) {
    Class& bound = ca.bound ? ca : cb;
    Class& unbound = ca.bound ? cb : ca;
    if (unbound.name_constraint != kNoConstraint &&
        (bound.type.is_unknown() || bound.type.name() != unbound.name_constraint)) {
      return;  // a deferred Name(...) cannot adopt a differently-named type
    }
    unbound.parent = ca.bound ? ra : rb;
    return;
  }
  // Both unbound: merge unless their name constraints disagree.
  if (ca.name_constraint != kNoConstraint && cb.name_constraint != kNoConstraint &&
      ca.name_constraint != cb.name_constraint) {
    return;
  }
  if (cb.name_constraint != kNoConstraint) {
    ca.name_constraint = cb.name_constraint;
  }
  cb.parent = ra;
}

int Planner::ClassForConcreteExpr(const SplitExpr& expr, const Node& node) {
  // Gather the constructor's argument values from the captured slots. A
  // still-pending produced value is passed as an empty Value; constructors
  // that need it return nullopt and parameter computation is deferred.
  std::vector<Value> ctor_args;
  ctor_args.reserve(expr.ctor_arg_indices.size());
  for (int idx : expr.ctor_arg_indices) {
    const Slot& slot = graph_.slot(node.args[static_cast<std::size_t>(idx)]);
    ctor_args.push_back(slot.value);  // may be empty when pending
  }
  std::optional<std::vector<std::int64_t>> params =
      registry_.RunCtor(expr.split_name, ctor_args);
  int c = NewClass();
  Class& cls = classes_[static_cast<std::size_t>(c)];
  if (params.has_value()) {
    cls.bound = true;
    cls.type = SplitType::Concrete(expr.split_name, std::move(*params));
  } else {
    cls.name_constraint = expr.split_name;
  }
  return c;
}

void Planner::InferTypes(int first_node, int end_node) {
  std::unordered_map<SlotId, int> slot_class;
  arg_classes_.assign(static_cast<std::size_t>(end_node - first_node), {});
  ret_classes_.assign(static_cast<std::size_t>(end_node - first_node), -1);

  for (int n = first_node; n < end_node; ++n) {
    const Node& node = graph_.nodes()[static_cast<std::size_t>(n)];
    const Annotation& ann = *node.ann;
    std::unordered_map<std::string, int> local_generics;
    auto generic_class = [&](const std::string& name) {
      auto it = local_generics.find(name);
      if (it != local_generics.end()) {
        return it->second;
      }
      int c = NewClass();
      local_generics.emplace(name, c);
      return c;
    };

    std::vector<int>& arg_cls = arg_classes_[static_cast<std::size_t>(n - first_node)];
    arg_cls.assign(node.args.size(), -1);

    for (std::size_t i = 0; i < node.args.size(); ++i) {
      const SplitExpr& expr = ann.args()[i].expr;
      int c = -1;
      switch (expr.kind) {
        case SplitExpr::Kind::kConcrete:
          c = ClassForConcreteExpr(expr, node);
          break;
        case SplitExpr::Kind::kGeneric:
          c = generic_class(expr.generic);
          break;
        default:
          break;  // "_": not split
      }
      arg_cls[i] = c;
      if (c < 0) {
        continue;
      }
      // Push types along dataflow edges: unify with the slot's current class.
      SlotId s = node.args[i];
      auto it = slot_class.find(s);
      if (it != slot_class.end()) {
        SoftUnify(c, it->second);
      } else {
        slot_class.emplace(s, Find(c));
      }
    }

    // Writes update the slot's class: a mut argument re-types its slot, and
    // the return value types its fresh slot.
    for (std::size_t i = 0; i < node.args.size(); ++i) {
      if (ann.args()[i].is_mut && arg_cls[i] >= 0) {
        slot_class[node.args[i]] = Find(arg_cls[i]);
      }
    }
    if (node.ret != kInvalidSlot) {
      const SplitExpr& rexpr = ann.ret();
      int c = -1;
      switch (rexpr.kind) {
        case SplitExpr::Kind::kConcrete:
          c = ClassForConcreteExpr(rexpr, node);
          break;
        case SplitExpr::Kind::kGeneric:
          c = generic_class(rexpr.generic);
          break;
        case SplitExpr::Kind::kUnknown: {
          c = NewClass();
          Class& cls = classes_[static_cast<std::size_t>(c)];
          cls.bound = true;
          cls.type = SplitType::Unknown(next_unknown_id_++);
          break;
        }
        default:
          break;  // kNone / kMissing: untyped return (serial nodes)
      }
      ret_classes_[static_cast<std::size_t>(n - first_node)] = c;
      if (c >= 0) {
        slot_class[node.ret] = Find(c);
      }
    }
  }
}

Plan Planner::Build(int first_node, int end_node) {
  MZ_CHECK(first_node >= 0 && first_node <= end_node && end_node <= graph_.num_nodes());
  InferTypes(first_node, end_node);

  Plan plan;
  Stage cur;
  std::unordered_map<SlotId, int> split_buf;      // slot → buffer index in cur
  std::unordered_map<SlotId, int> broadcast_buf;  // slot → buffer index in cur
  // Concrete split types present in the current stage, by name. Two values
  // split with the same named type but different parameters cannot share a
  // stage even when their dataflow is independent (their piece streams — and
  // so their element totals — would disagree).
  std::unordered_map<InternedId, std::vector<std::int64_t>> stage_types;
  int stage_last_node = -1;

  // Stage totals probe. Unbound-generic / unknown streams carry no size in
  // their types, so two independent chains of different lengths could
  // co-reside in a stage (no concrete-name conflict) and only fail at
  // execution with "stage inputs disagree on total elements". Probe such
  // streams' materialized sources through their default split types
  // (Registry::ProbeTotalElements — also hashed by the plan-cache
  // fingerprint, so cached plans reproduce the breaks), propagate the totals
  // along inference classes, and turn a disagreement into a stage break like
  // the concrete-name case.
  std::unordered_map<int, std::int64_t> class_totals;  // class root → probed total
  std::int64_t stage_probe = -1;
  auto probe_of_arg = [&](SlotId s, int c) -> std::optional<std::int64_t> {
    int root = Find(c);
    const Class& cls = classes_[static_cast<std::size_t>(root)];
    if (cls.bound && !cls.type.is_unknown()) {
      return std::nullopt;  // concrete: sized by ctor params, not probed
    }
    if (cls.name_constraint != kNoConstraint) {
      return std::nullopt;  // deferred concrete ctor: params arrive late
    }
    const Slot& slot = graph_.slot(s);
    if (slot.value.has_value()) {
      std::optional<std::int64_t> t = registry_.ProbeTotalElements(slot.value);
      if (t.has_value()) {
        class_totals.emplace(root, *t);
        return t;
      }
    }
    auto it = class_totals.find(root);
    if (it != class_totals.end()) {
      return it->second;  // pending value: total flows from the chain's source
    }
    return std::nullopt;
  };

  // Finalizes produced buffers' is_output flags and appends the stage.
  auto close_stage = [&] {
    if (cur.funcs.empty()) {
      cur = Stage();
      split_buf.clear();
      broadcast_buf.clear();
      return;
    }
    for (StageBuffer& buf : cur.buffers) {
      if (buf.is_input || buf.is_broadcast || buf.is_output) {
        continue;
      }
      // Produced value: merge it only if something outside the stage can
      // observe it — a live Future handle or a later node in the graph.
      const Slot& slot = graph_.slot(buf.slot);
      if (slot.external_refs > 0 || slot.external || graph_.UsedAfter(buf.slot, stage_last_node)) {
        buf.is_output = true;
      }
    }
    plan.stages.push_back(std::move(cur));
    cur = Stage();
    split_buf.clear();
    broadcast_buf.clear();
    stage_types.clear();
    stage_probe = -1;
  };

  // True when a bound concrete type conflicts with a same-named type already
  // established in the current stage.
  auto conflicts_with_stage = [&](int cls) {
    const Class& c = classes_[static_cast<std::size_t>(Find(cls))];
    if (!c.bound || c.type.is_unknown()) {
      return false;
    }
    auto it = stage_types.find(c.type.name());
    return it != stage_types.end() && it->second != c.type.params();
  };

  auto record_stage_type = [&](int cls) {
    const Class& c = classes_[static_cast<std::size_t>(Find(cls))];
    if (c.bound && !c.type.is_unknown()) {
      stage_types.emplace(c.type.name(), c.type.params());
    }
  };

  auto add_broadcast_buffer = [&](Stage& stage, std::unordered_map<SlotId, int>& map, SlotId s,
                                  bool halo) {
    auto it = map.find(s);
    if (it != map.end()) {
      // One plain "_" reference makes the shared buffer resident.
      StageBuffer& buf = stage.buffers[static_cast<std::size_t>(it->second)];
      buf.is_halo = buf.is_halo && halo;
      return it->second;
    }
    StageBuffer buf;
    buf.slot = s;
    buf.is_broadcast = true;
    buf.is_halo = halo;
    stage.buffers.push_back(std::move(buf));
    int idx = static_cast<int>(stage.buffers.size()) - 1;
    map.emplace(s, idx);
    return idx;
  };

  // Resolves how a value entering the stage (or produced in it) is split or
  // merged, from its inference class.
  auto resolve_buffer_type = [&](StageBuffer& buf, int cls, bool produced) {
    int root = Find(cls);
    buf.class_id = root;
    const Class& c = classes_[static_cast<std::size_t>(root)];
    if (c.bound) {
      if (c.type.is_unknown()) {
        // Stage-entry `unknown` values are re-split (or piecewise merged)
        // via the C++ type's default split type.
        if (produced) {
          buf.merge_by_piece_type = true;
        } else {
          buf.use_default_split = true;
        }
        buf.debug_type = c.type.ToString();
      } else {
        buf.split_name = c.type.name();
        buf.params = c.type.params();
        buf.debug_type = c.type.ToString();
      }
      return;
    }
    if (c.name_constraint != kNoConstraint) {
      buf.split_name = c.name_constraint;
      buf.params_deferred = true;
      buf.debug_type = InternedName(c.name_constraint) + "<deferred>";
      return;
    }
    if (produced) {
      buf.merge_by_piece_type = true;
    } else {
      buf.use_default_split = true;
    }
    buf.debug_type = "default";
  };

  for (int n = first_node; n < end_node; ++n) {
    const Node& node = graph_.nodes()[static_cast<std::size_t>(n)];
    const Annotation& ann = *node.ann;
    const std::vector<int>& arg_cls = arg_classes_[static_cast<std::size_t>(n - first_node)];

    if (ann.IsSerial()) {
      // Unsplittable call: runs alone, unsplit (cf. the Bohrium indexing
      // discussion in §8 — Mozart treats such calls as single-element
      // function calls).
      close_stage();
      Stage stage;
      stage.serial = true;
      PlannedFunc pf;
      pf.node_index = n;
      std::unordered_map<SlotId, int> serial_bufs;
      for (SlotId s : node.args) {
        pf.args.push_back({add_broadcast_buffer(stage, serial_bufs, s, /*halo=*/false)});
      }
      if (node.ret != kInvalidSlot) {
        StageBuffer buf;
        buf.slot = node.ret;
        buf.is_output = true;
        stage.buffers.push_back(std::move(buf));
        pf.ret_buffer = static_cast<int>(stage.buffers.size()) - 1;
      }
      stage.funcs.push_back(std::move(pf));
      plan.stages.push_back(std::move(stage));
      continue;
    }

    if (!pipeline_) {
      close_stage();  // ablation: one node per stage
    }

    // Decide whether the node fits the currently-open stage.
    bool break_needed = false;
    for (std::size_t i = 0; i < node.args.size() && !break_needed; ++i) {
      SlotId s = node.args[i];
      int c = arg_cls[i];
      auto it = split_buf.find(s);
      if (c < 0) {
        // "_" argument: needs the full value; break if it is mid-pipeline.
        if (it != split_buf.end()) {
          break_needed = true;
        }
        continue;
      }
      if (ann.args()[i].is_mut && broadcast_buf.count(s) != 0) {
        // Write-after-read: an earlier node of the stage reads the full
        // value, and its later batches must not see this node's pieces.
        break_needed = true;
        continue;
      }
      if (conflicts_with_stage(c)) {
        break_needed = true;
        continue;
      }
      if (std::optional<std::int64_t> probe = probe_of_arg(s, c);
          probe.has_value() && stage_probe >= 0 && *probe != stage_probe) {
        break_needed = true;  // totals probe: streams of different lengths
        continue;
      }
      if (it != split_buf.end()) {
        int buf_cls = cur.buffers[static_cast<std::size_t>(it->second)].class_id;
        int ra = Find(c);
        int rb = Find(buf_cls);
        bool same_stream = ra == rb;
        if (!same_stream) {
          const Class& a = classes_[static_cast<std::size_t>(ra)];
          const Class& b = classes_[static_cast<std::size_t>(rb)];
          same_stream = a.bound && b.bound && a.type == b.type;
        }
        if (!same_stream) {
          break_needed = true;
        }
      }
    }
    if (break_needed) {
      close_stage();
    }

    // A mut "_" argument on a split (non-serial) node would let every
    // pipeline mutate the same full value concurrently.
    for (std::size_t i = 0; i < node.args.size(); ++i) {
      MZ_THROW_IF(ann.args()[i].is_mut && arg_cls[i] < 0,
                  "annotation '" << ann.func_name() << "': mut argument '" << ann.args()[i].name
                                 << "' with missing split type on a splittable function");
    }

    PlannedFunc pf;
    pf.node_index = n;
    for (std::size_t i = 0; i < node.args.size(); ++i) {
      SlotId s = node.args[i];
      int c = arg_cls[i];
      int buf_idx;
      if (c < 0) {
        buf_idx = add_broadcast_buffer(cur, broadcast_buf, s,
                                       ann.args()[i].expr.kind == SplitExpr::Kind::kHalo);
      } else {
        auto it = split_buf.find(s);
        if (it != split_buf.end()) {
          buf_idx = it->second;
        } else {
          StageBuffer buf;
          buf.slot = s;
          buf.is_input = true;
          resolve_buffer_type(buf, c, /*produced=*/false);
          cur.buffers.push_back(std::move(buf));
          buf_idx = static_cast<int>(cur.buffers.size()) - 1;
          split_buf.emplace(s, buf_idx);
          record_stage_type(c);
        }
        if (ann.args()[i].is_mut) {
          cur.buffers[static_cast<std::size_t>(buf_idx)].is_output = true;
        }
        if (std::optional<std::int64_t> probe = probe_of_arg(s, c);
            probe.has_value() && stage_probe < 0) {
          stage_probe = *probe;
        }
      }
      pf.args.push_back({buf_idx});
    }
    if (node.ret != kInvalidSlot) {
      int c = ret_classes_[static_cast<std::size_t>(n - first_node)];
      StageBuffer buf;
      buf.slot = node.ret;
      if (c >= 0) {
        resolve_buffer_type(buf, c, /*produced=*/true);
      } else {
        buf.merge_by_piece_type = true;
      }
      cur.buffers.push_back(std::move(buf));
      pf.ret_buffer = static_cast<int>(cur.buffers.size()) - 1;
      split_buf.emplace(node.ret, pf.ret_buffer);
      if (c >= 0) {
        record_stage_type(c);
      }
    }
    cur.funcs.push_back(std::move(pf));
    stage_last_node = n;
  }
  close_stage();
  AnnotateCarries(&plan);
  AnnotateFootprints(&plan);
  AnnotatePipeline(&plan);

  MZ_LOG(Debug) << "planned " << plan.stages.size() << " stage(s) for nodes [" << first_node
                << ", " << end_node << ")";
  return plan;
}

// Stage-boundary carry-over analysis (piece passing).
//
// A buffer that exits a stage as pieces (a produced value or a mut split
// input) is normally merged on the boundary and re-split by the next stage
// that consumes it — even when both sides agree on the split stream and the
// break was forced by something unrelated (a "_" broadcast, a conflicting
// split elsewhere in the stage, or the -pipe ablation). This pass finds such
// buffers and marks them carry_out (producer: skip the merge, hand the
// per-worker piece sets over) / carry_in (consumer: skip the Split calls,
// batch by the carried ranges).
//
// Eligibility, per candidate buffer `b` of stage `s`:
//  1. Its slot has a *single* consuming stage `s2 > s`, non-serial, that
//     reads it through a split-input buffer whose inference stream matches
//     (same union-find root, or equal bound concrete types) and whose
//     parameters are not deferred.
//  2. Skipping the merge is sound. Either
//       (a) identity: the slot holds a full value whose merge splitter is an
//           identity (pieces alias the original storage) — then the full
//           value stays valid throughout, so broadcast ("_") references and
//           additional consuming stages are all fine and only the *first*
//           consuming stage takes pieces; or
//       (b) owned: nothing outside `s2` can observe the merged value — the
//           slot is not external and every in-plan reference sits in `s2`
//           as that one split input. A live Future handle no longer forces
//           the merge: when the consumer reads the stream immutably, the
//           buffer carries with `deferred_merge` set and the executor parks
//           the ordered pieces on the slot for a lazy merge-on-get
//           (Slot::deferred) — the common hold-every-intermediate-future
//           client pattern still gets the elision.
//  3. The stream can be re-consumed piecewise at all: concrete streams whose
//     split type is merge-only (reductions, partial aggregations) never
//     carry — their pieces are not positional slices of the source range.
//
// Per consuming stage, two structural rules keep execution well-defined:
//  * carried-in buffers normally come from ONE producer stage (their piece
//    range sets are identical by construction). Carries from *multiple*
//    producer stages — the multi-hop case where a stream skips over an
//    intermediate carried stage — are kept only when every carried stream
//    is aligned (bound concrete), because then each set's range tags are
//    positional slices of the same element space and the executor can
//    reconcile differing range structures by re-batching (or, failing
//    that, materialize the stragglers at consume time);
//  * a consuming stage may mix carried buffers with freshly split inputs
//    only if every carried stream is "aligned" — a bound concrete type whose
//    pieces cover the source ranges [start, end) — so the fresh inputs can
//    be split by the carried ranges. Unknown/default streams (e.g. filter
//    output) carry only when every split input of the stage is carried.
void Planner::AnnotateCarries(Plan* plan) {
  const int num_stages = static_cast<int>(plan->stages.size());

  struct Candidate {
    int producer_stage = -1;
    int producer_buf = -1;
    int consumer_stage = -1;
    int consumer_buf = -1;
    bool aligned = false;
    bool deferred = false;  // live-Future pin: park pieces for merge-on-get
  };
  std::vector<Candidate> candidates;

  auto class_root = [&](int cls) { return cls >= 0 ? Find(cls) : -1; };
  auto same_stream = [&](const StageBuffer& a, const StageBuffer& b) {
    int ra = class_root(a.class_id);
    int rb = class_root(b.class_id);
    if (ra < 0 || rb < 0) {
      return false;
    }
    if (ra == rb) {
      return true;
    }
    const Class& ca = classes_[static_cast<std::size_t>(ra)];
    const Class& cb = classes_[static_cast<std::size_t>(rb)];
    return ca.bound && cb.bound && ca.type == cb.type;
  };

  for (int s = 0; s < num_stages; ++s) {
    Stage& st = plan->stages[s];
    if (st.serial) {
      continue;
    }
    for (int bi = 0; bi < static_cast<int>(st.buffers.size()); ++bi) {
      StageBuffer& b = st.buffers[static_cast<std::size_t>(bi)];
      const bool produced = !b.is_input && !b.is_broadcast;
      const bool mut_input = b.is_input && b.is_output;
      if (!produced && !mut_input) {
        continue;  // read-only inputs and broadcasts leave no pieces behind
      }

      // Locate the first consuming stage and how the slot is referenced.
      int first_cs = -1;
      int first_cb = -1;
      bool first_has_broadcast = false;
      bool later_consumers = false;
      for (int s2 = s + 1; s2 < num_stages && !later_consumers; ++s2) {
        const Stage& st2 = plan->stages[static_cast<std::size_t>(s2)];
        bool referenced = false;
        for (int j = 0; j < static_cast<int>(st2.buffers.size()); ++j) {
          const StageBuffer& b2 = st2.buffers[static_cast<std::size_t>(j)];
          if (b2.slot != b.slot) {
            continue;
          }
          if (b2.is_input) {
            referenced = true;
            if (first_cs < 0 || first_cs == s2) {
              first_cb = j;
            }
          } else if (b2.is_broadcast) {
            referenced = true;
            if (first_cs < 0 || first_cs == s2) {
              first_has_broadcast = true;
            }
          }
        }
        if (!referenced) {
          continue;
        }
        if (first_cs < 0) {
          first_cs = s2;
        } else if (s2 != first_cs) {
          later_consumers = true;
        }
      }
      if (first_cs < 0 || first_cb < 0) {
        continue;  // unconsumed, or the first consumer needs the full value
      }
      const Stage& cstage = plan->stages[static_cast<std::size_t>(first_cs)];
      if (cstage.serial) {
        continue;
      }
      const StageBuffer& cb = cstage.buffers[static_cast<std::size_t>(first_cb)];
      if (!same_stream(b, cb) || cb.params_deferred) {
        continue;
      }

      const Slot& slot = graph_.slot(b.slot);
      const int root = class_root(b.class_id);
      const Class& cls = classes_[static_cast<std::size_t>(root)];
      const bool concrete = cls.bound && !cls.type.is_unknown() && !b.use_default_split &&
                            !b.params_deferred && !b.merge_by_piece_type && b.split_name != 0;
      if (concrete && registry_.SplitTypeIsMergeOnly(b.split_name)) {
        continue;  // reductions / partial aggregations: pieces aren't slices
      }

      bool identity = false;
      if (slot.value.has_value()) {
        std::optional<InternedId> name;
        if (concrete) {
          name = b.split_name;
        } else {
          name = registry_.DefaultSplitTypeFor(slot.value.type());
        }
        if (name.has_value()) {
          const Splitter* sp = registry_.FindSplitter(*name, slot.value.type());
          identity = sp != nullptr && sp->traits().merge_is_identity;
        }
      }
      bool deferred = false;
      if (!identity) {
        if (slot.external || later_consumers || first_has_broadcast) {
          continue;
        }
        if (slot.external_refs > 0) {
          // Pinned by a live Future. The pieces the consumer sees share
          // storage with the pieces we would park on the slot, so defer the
          // merge into Future::get() only when the consumer reads them
          // immutably.
          if (cb.is_output) {
            continue;
          }
          deferred = true;
        }
      }
      candidates.push_back({s, bi, first_cs, first_cb, concrete, deferred});
    }
  }

  // Per consuming stage: keep carries from multiple producer stages when
  // every candidate stream is aligned (bound concrete — the executor can
  // reconcile their differing range structures by re-batching); otherwise
  // fall back to a single producer stage (the one contributing the most
  // buffers; ties go to the earliest). Then drop non-aligned carries when
  // the stage still has freshly split inputs.
  std::unordered_map<int, std::vector<Candidate>> by_consumer;
  for (const Candidate& c : candidates) {
    by_consumer[c.consumer_stage].push_back(c);
  }
  for (auto& [cs, cands] : by_consumer) {
    std::unordered_map<int, int> producer_count;
    bool all_aligned = true;
    for (const Candidate& c : cands) {
      producer_count[c.producer_stage]++;
      all_aligned = all_aligned && c.aligned;
    }
    std::vector<Candidate> kept;
    if (producer_count.size() == 1 || all_aligned) {
      kept = cands;  // one structure, or positionally reconcilable sets
    } else {
      int best_producer = -1;
      int best_count = 0;
      for (const auto& [p, count] : producer_count) {
        if (count > best_count ||
            (count == best_count && (best_producer < 0 || p < best_producer))) {
          best_producer = p;
          best_count = count;
        }
      }
      for (const Candidate& c : cands) {
        if (c.producer_stage == best_producer) {
          kept.push_back(c);
        }
      }
    }

    Stage& cstage = plan->stages[static_cast<std::size_t>(cs)];
    auto is_kept = [&](int buf) {
      for (const Candidate& c : kept) {
        if (c.consumer_buf == buf) {
          return true;
        }
      }
      return false;
    };
    bool has_fresh_split_input = false;
    for (int j = 0; j < static_cast<int>(cstage.buffers.size()); ++j) {
      if (cstage.buffers[static_cast<std::size_t>(j)].is_input && !is_kept(j)) {
        has_fresh_split_input = true;
        break;
      }
    }
    if (has_fresh_split_input) {
      std::erase_if(kept, [](const Candidate& c) { return !c.aligned; });
      // Dropping a carry re-creates a fresh split input; since only aligned
      // carries remain and those tolerate fresh inputs, one pass suffices.
    }
    for (const Candidate& c : kept) {
      StageBuffer& pb = plan->stages[static_cast<std::size_t>(c.producer_stage)]
                            .buffers[static_cast<std::size_t>(c.producer_buf)];
      pb.carry_out = true;
      pb.deferred_merge = c.deferred;
      plan->stages[static_cast<std::size_t>(c.producer_stage)].feeds_carries = true;
      cstage.buffers[static_cast<std::size_t>(c.consumer_buf)].carry_in = true;
      cstage.takes_carries = true;
    }
  }
}

// Per-stage footprint model: record each buffer's splitter-declared
// bytes-per-element so the executor can size the stage's batch by the sum
// over *all* live buffers — inputs it will Info() directly, plus produced
// values and carried pieces it cannot. Broadcast buffers are hinted too:
// their full value sits resident in cache for the whole stage, so the
// executor charges them against the batch budget as resident bytes (a wide
// HashJoin build side must shrink the batch, not count at zero).
//
// Width resolution, most exact first: WidthForParams with the buffer's
// resolved parameters (a MatrixSplit row is `cols * 8` bytes), the traits
// constant, then — for streams whose splitter cannot know (a frame's row
// width depends on its schema) — the bytes-per-element a probe of a
// materialized same-class value reports. Everything here is a pure function
// of fingerprinted planner inputs (split names, held C++ types, registry
// version, and the per-slot Info probe the fingerprint hashes), so
// plan-cache templates reproduce the hints bit-identically.
void Planner::AnnotateFootprints(Plan* plan) {
  // First pass — stream defaults: an unbound generic chain's element width
  // comes from its materialized source; propagate both the source's default
  // split type and its probed bytes-per-element along the inference class so
  // *produced* buffers of the chain (pending slots, nothing to inspect)
  // still contribute their width.
  std::unordered_map<int, InternedId> class_defaults;
  std::unordered_map<int, std::int64_t> class_probed_bpe;
  for (Stage& stage : plan->stages) {
    if (stage.serial) {
      continue;
    }
    for (StageBuffer& buf : stage.buffers) {
      if (buf.class_id < 0) {
        continue;
      }
      const Slot& slot = graph_.slot(buf.slot);
      if (!slot.value.has_value()) {
        continue;
      }
      if (auto dflt = registry_.DefaultSplitTypeFor(slot.value.type()); dflt.has_value()) {
        class_defaults.emplace(buf.class_id, *dflt);
      }
      if (auto info = registry_.ProbeRuntimeInfo(slot.value);
          info.has_value() && info->bytes_per_element > 0) {
        class_probed_bpe.emplace(buf.class_id, info->bytes_per_element);
      }
    }
  }
  for (Stage& stage : plan->stages) {
    if (stage.serial) {
      continue;
    }
    for (StageBuffer& buf : stage.buffers) {
      InternedId name = buf.split_name;
      if (name == 0) {
        const Slot& slot = graph_.slot(buf.slot);
        if (slot.value.has_value()) {
          if (auto dflt = registry_.DefaultSplitTypeFor(slot.value.type()); dflt.has_value()) {
            name = *dflt;
          }
        }
      }
      if (name == 0 && buf.class_id >= 0) {
        if (auto it = class_defaults.find(buf.class_id); it != class_defaults.end()) {
          name = it->second;
        }
      }
      std::int64_t width = 0;
      if (name != 0) {
        // Parameters resolved at plan time give the exact width; otherwise
        // the splitters' static constant.
        width = name == buf.split_name && !buf.params_deferred && !buf.params.empty()
                    ? registry_.ElementWidthForSplitType(name, buf.params)
                    : registry_.ElementWidthForSplitType(name);
      }
      if (width == 0) {
        // Schema-dependent streams (frames): fall back to the probed
        // bytes-per-element of this slot's value, or of any materialized
        // value in the same inference class. The fingerprint hashes the
        // probe, so warm templates carry the same number.
        const Slot& slot = graph_.slot(buf.slot);
        if (slot.value.has_value()) {
          if (auto info = registry_.ProbeRuntimeInfo(slot.value);
              info.has_value() && info->bytes_per_element > 0) {
            width = info->bytes_per_element;
          }
        }
        if (width == 0 && buf.class_id >= 0) {
          if (auto it = class_probed_bpe.find(buf.class_id); it != class_probed_bpe.end()) {
            width = it->second;
          }
        }
      }
      buf.elem_bytes_hint = width;
    }
  }
}

// Groups maximal runs of consecutive carried stages into pipelineable
// regions. While a region runs, batch i of stage k overlaps batch i-1 of
// stage k+1 — partially computed streams are live across the whole region,
// so eligibility is stricter than plain carrying. Stage s extends the
// region ending at stage s-1 iff:
//  1. s is non-serial and takes carries;
//  2. every split-input buffer of s is carry_in, with its producing
//     carry_out buffer in a stage already in the region (the executor feeds
//     pieces depth-to-depth inside one batch walk, so any in-region
//     producer works, including skip-level carries) — a fresh split input
//     or an out-of-region producer would need the upstream stage complete;
//  3. no broadcast buffer of s names a slot any in-region stage writes
//     (mut or produced): the broadcast reads the *full* value, which is
//     only final once the writing stage has completely finished — exactly
//     the barrier pipelining removes;
//  4. s writes no slot an in-region stage broadcasts (write-after-read):
//     that stage's later batches still read the full value while s's
//     earlier batches would already have rewritten part of it.
// Regions of length >= 2 get ids; singleton runs stay unmarked
// (pipeline_region = -1) and execute exactly as before.
void Planner::AnnotatePipeline(Plan* plan) {
  const int num_stages = static_cast<int>(plan->stages.size());
  int next_region = 0;
  int run_start = 0;
  auto close_run = [&](int run_end) {  // [run_start, run_end)
    if (run_end - run_start >= 2) {
      for (int s = run_start; s < run_end; ++s) {
        plan->stages[static_cast<std::size_t>(s)].pipeline_region = next_region;
      }
      ++next_region;
    }
    run_start = run_end;
  };

  auto writes = [](const StageBuffer& b) {
    return b.is_output || (!b.is_input && !b.is_broadcast);  // mut or produced
  };
  auto writes_slot = [&](const Stage& st, SlotId slot) {
    for (const StageBuffer& b : st.buffers) {
      if (b.slot == slot && writes(b)) {
        return true;
      }
    }
    return false;
  };
  auto broadcasts_slot = [&](const Stage& st, SlotId slot) {
    for (const StageBuffer& b : st.buffers) {
      if (b.slot == slot && b.is_broadcast) {
        return true;
      }
    }
    return false;
  };
  auto carries_out_slot = [&](const Stage& st, SlotId slot) {
    for (const StageBuffer& b : st.buffers) {
      if (b.slot == slot && b.carry_out) {
        return true;
      }
    }
    return false;
  };

  for (int s = 1; s < num_stages; ++s) {
    const Stage& st = plan->stages[static_cast<std::size_t>(s)];
    const Stage& prev = plan->stages[static_cast<std::size_t>(s - 1)];
    bool extend = !st.serial && !prev.serial && st.takes_carries && prev.feeds_carries;
    if (extend) {
      for (const StageBuffer& b : st.buffers) {
        if (writes(b)) {
          for (int p = run_start; p < s && extend; ++p) {
            extend = !broadcasts_slot(plan->stages[static_cast<std::size_t>(p)], b.slot);
          }
          if (!extend) {
            break;  // an in-region stage still reads the full value
          }
        }
        if (b.is_input && !b.carry_in) {
          // Fresh split input. Fine as long as no in-region stage produces
          // the slot: the value is materialized before the region starts,
          // and the executor splits it by the in-flight batch ranges
          // (AnnotateCarries only mixes fresh inputs with aligned carried
          // streams, so the ranges are positional for it too).
          for (int p = run_start; p < s; ++p) {
            if (writes_slot(plan->stages[static_cast<std::size_t>(p)], b.slot)) {
              extend = false;  // produced in-region: needs that stage done
              break;
            }
          }
          if (!extend) {
            break;
          }
          continue;
        }
        if (b.is_input && b.carry_in) {
          bool in_region = false;
          for (int p = run_start; p < s && !in_region; ++p) {
            in_region = carries_out_slot(plan->stages[static_cast<std::size_t>(p)], b.slot);
          }
          if (!in_region) {
            extend = false;  // carried from before the region boundary
            break;
          }
        }
        if (b.is_broadcast) {
          for (int p = run_start; p < s; ++p) {
            if (writes_slot(plan->stages[static_cast<std::size_t>(p)], b.slot)) {
              extend = false;  // full-value read of an in-flight stream
              break;
            }
          }
          if (!extend) {
            break;
          }
        }
      }
    }
    if (!extend) {
      close_run(s);
    }
  }
  close_run(num_stages);
}

}  // namespace mz
