#include "core/plan_cache.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

#if defined(__GLIBC__) && __has_include(<malloc.h>)
#include <malloc.h>
#define MZ_HAVE_MALLOC_USABLE_SIZE 1
#endif

namespace mz {
namespace {

// Fingerprint format version: bump when the word stream changes so stale
// processes (or a future persisted cache) can never mix formats.
// v6: one read of the range — a slot's facts (flags, C++ type, default-split
// probe) are hashed once, at its first appearance; split expressions are not
// hashed, since the pinned annotation's identity fixes them.
constexpr std::uint64_t kFormatVersion = 6;
// Marker hashed in place of ctor parameters when the constructor defers
// (nullopt: a parameter depends on a still-pending value).
constexpr std::uint64_t kDeferredCtor = 0x9e3779b97f4a7c15ull;

// splitmix64 finalizer: decorrelates raw pointers / small ints before they
// enter the rolling hash.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct WordSink {
  std::vector<std::uint64_t>* words;
  std::uint64_t h = 0xcbf29ce484222325ull;

  void Put(std::uint64_t w) {
    words->push_back(w);
    h = (h ^ Mix(w)) * 0x100000001b3ull;
  }
};

// --- allocator-true accounting helpers (CountPlanHeapBytes) ---

// What the allocator actually carved out for the block at `p`. The fallback
// (requested size) is used where the platform has no introspection hook.
std::size_t HeapBlockBytes(const void* p, std::size_t requested) {
  if (p == nullptr || requested == 0) {
    return 0;
  }
#ifdef MZ_HAVE_MALLOC_USABLE_SIZE
  return ::malloc_usable_size(const_cast<void*>(p));
#else
  return requested;
#endif
}

template <typename T>
std::size_t VecHeapBytes(const std::vector<T>& v) {
  return v.capacity() == 0 ? 0 : HeapBlockBytes(v.data(), v.capacity() * sizeof(T));
}

}  // namespace

RangeFingerprint FingerprintRange(const TaskGraph& graph, const Registry& registry, int first,
                                  int end, bool pipeline) {
  MZ_CHECK(first >= 0 && first <= end && end <= graph.num_nodes());
  RangeFingerprint out;
  out.first = first;
  out.end = end;
  out.pipeline = pipeline;
  WordSink sink{&out.key.words};

  // Each slot is read once, at its first appearance; later uses hash only
  // its canonical id.
  auto put_slot = [&](SlotId s) {
    auto [it, fresh] = out.canon_ids.emplace(s, static_cast<std::uint32_t>(out.slots.size()));
    sink.Put(it->second);
    if (!fresh) {
      return;
    }
    const Slot& slot = graph.slot(s);
    SlotFacts facts{.id = s,
                    .pending = slot.pending,
                    .external = slot.external,
                    .observed = slot.external_refs > 0,
                    .type = slot.value.has_value()
                                ? std::optional<std::type_index>(slot.value.type())
                                : std::nullopt,
                    .probe = registry.ProbeRuntimeInfo(slot.value)};  // nullopt while empty
    sink.Put((facts.pending ? 1u : 0u) | (facts.type.has_value() ? 2u : 0u) |
             (facts.external ? 4u : 0u) | (facts.observed ? 8u : 0u));
    if (const std::optional<RuntimeInfo>& p = facts.probe; facts.type.has_value()) {
      sink.Put(static_cast<std::uint64_t>(facts.type->hash_code()));
      sink.Put(p.has_value() ? static_cast<std::uint64_t>(p->total_elements) + 1 : 0);
      sink.Put(p.has_value() ? static_cast<std::uint64_t>(p->bytes_per_element) + 1 : 0);
    }
    out.slots.push_back(std::move(facts));
  };

  std::size_t uses = 0;  // argument and return slots: sizes the records up front
  for (int n = first; n < end; ++n) {
    uses += graph.nodes()[static_cast<std::size_t>(n)].args.size() + 1;
  }
  out.key.words.reserve(4 + 6 * uses);
  out.canon_ids.reserve(uses);
  out.slots.reserve(uses);
  out.ctors.reserve(uses);
  out.ctor_base.reserve(static_cast<std::size_t>(end - first));
  out.pins.reserve(2 * static_cast<std::size_t>(end - first));

  sink.Put(kFormatVersion);
  out.registry_version = registry.version();
  sink.Put(out.registry_version);
  sink.Put(pipeline ? 1 : 0);
  sink.Put(static_cast<std::uint64_t>(end - first));

  std::vector<Value> ctor_args;
  for (int n = first; n < end; ++n) {
    const Node& node = graph.nodes()[static_cast<std::size_t>(n)];
    sink.Put(reinterpret_cast<std::uintptr_t>(node.ann.get()));
    sink.Put(reinterpret_cast<std::uintptr_t>(node.fn.get()));
    out.pins.push_back(node.ann);
    out.pins.push_back(node.fn);
    const bool has_ret = node.ret != kInvalidSlot;
    sink.Put(node.args.size() | (has_ret ? (1ull << 32) : 0));
    for (SlotId s : node.args) {
      put_slot(s);
    }
    if (has_ret) {
      put_slot(node.ret);
    }

    out.ctor_base.push_back(out.ctors.size());
    auto put_ctor = [&](const SplitExpr& expr) {
      CtorParams& params = out.ctors.emplace_back();
      if (expr.kind != SplitExpr::Kind::kConcrete) {
        return;
      }
      ctor_args.clear();
      for (int idx : expr.ctor_arg_indices) {
        ctor_args.push_back(graph.slot(node.args[static_cast<std::size_t>(idx)]).value);
      }
      params = registry.RunCtor(expr.split_name, ctor_args);
      if (!params.has_value()) {
        sink.Put(kDeferredCtor);
        return;
      }
      sink.Put(params->size());
      for (std::int64_t p : *params) {
        sink.Put(static_cast<std::uint64_t>(p));
      }
    };
    for (const ArgSpec& arg : node.ann->args()) {
      put_ctor(arg.expr);
    }
    if (has_ret) {
      put_ctor(node.ann->ret());
    } else {
      out.ctors.emplace_back();
    }
  }

  out.key.hash = sink.h;
  return out;
}

Plan MakePlanTemplate(const Plan& plan, const RangeFingerprint& range) {
  Plan tmpl = plan;
  for (Stage& stage : tmpl.stages) {
    for (StageBuffer& buf : stage.buffers) {
      auto it = range.canon_ids.find(buf.slot);
      MZ_CHECK_MSG(it != range.canon_ids.end(),
                   "plan references slot " << buf.slot << " outside the fingerprinted range");
      buf.slot = it->second;
    }
    for (PlannedFunc& pf : stage.funcs) {
      pf.node_index -= range.first;
    }
  }
  return tmpl;
}

Plan InstantiatePlan(const Plan& tmpl, const RangeFingerprint& range) {
  Plan plan = tmpl;
  for (Stage& stage : plan.stages) {
    for (StageBuffer& buf : stage.buffers) {
      MZ_CHECK_MSG(buf.slot < range.slots.size(), "template slot id out of range");
      buf.slot = range.slots[buf.slot].id;
    }
    for (PlannedFunc& pf : stage.funcs) {
      pf.node_index += range.first;
    }
  }
  return plan;
}

PlanCache::PlanCache(std::size_t max_entries)
    : PlanCache(PlanCacheOptions{.max_entries = max_entries}) {}

PlanCache::PlanCache(const PlanCacheOptions& opts) : opts_([&] {
      PlanCacheOptions o = opts;
      o.max_entries = std::max<std::size_t>(1, o.max_entries);
      return o;
    }()) {}

std::shared_ptr<const Plan> PlanCache::Lookup(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(key.hash);
  if (it != buckets_.end()) {
    for (Entry& entry : it->second) {
      if (entry.words == key.words) {
        order_.splice(order_.end(), order_, entry.order_it);  // promote to MRU
        ++hits_;  // under mu_: the count can never lag the lookup it records
        return entry.tmpl;  // refcount bump — the template copy, if any,
                            // happens outside the lock (InstantiatePlan)
      }
    }
  }
  ++misses_;
  return nullptr;
}

bool PlanCache::Contains(const PlanKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(key.hash);
  if (it == buckets_.end()) {
    return false;
  }
  for (const Entry& entry : it->second) {
    if (entry.words == key.words) {
      return true;
    }
  }
  return false;
}

void PlanCache::EvictWhileOverBudget(std::uint64_t keep_seq, PlanCacheInsertOutcome* outcome) {
  auto it = order_.begin();
  while (it != order_.end() &&
         (count_ > opts_.max_entries || (opts_.max_bytes > 0 && bytes_ > opts_.max_bytes))) {
    const auto [victim_hash, victim_seq] = *it;
    if (victim_seq == keep_seq) {
      ++it;  // the entry just inserted is never its own victim; keep walking
      continue;
    }
    auto bit = buckets_.find(victim_hash);
    MZ_CHECK_MSG(bit != buckets_.end(), "recency list names a missing bucket");
    auto& chain = bit->second;
    auto vit = std::find_if(chain.begin(), chain.end(),
                            [&](const Entry& e) { return e.seq == victim_seq; });
    MZ_CHECK_MSG(vit != chain.end(), "recency list names a missing entry");
    bytes_ -= vit->bytes;
    outcome->evicted_bytes += vit->bytes;
    evicted_bytes_ += static_cast<std::int64_t>(vit->bytes);
    outcome->evicted_entries++;
    ++evictions_;
    it = order_.erase(it);
    chain.erase(vit);
    --count_;
    if (chain.empty()) {
      buckets_.erase(bit);
    }
  }
}

PlanCacheInsertOutcome PlanCache::Insert(const PlanKey& key, Plan plan_template,
                                         std::vector<std::shared_ptr<const void>> pins) {
  auto tmpl = std::make_shared<const Plan>(std::move(plan_template));
  PlanCacheInsertOutcome outcome;

  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry>& chain = buckets_[key.hash];
  std::uint64_t seq = 0;
  bool refreshed = false;
  for (Entry& entry : chain) {
    if (entry.words == key.words) {
      entry.tmpl = std::move(tmpl);
      entry.pins = std::move(pins);
      // Account the entry as stored — true accounting must measure the
      // containers that actually stay resident, not the caller's copies.
      const std::size_t entry_bytes = CountPlanHeapBytes(entry.words, *entry.tmpl, entry.pins);
      bytes_ += entry_bytes;
      bytes_ -= entry.bytes;
      entry.bytes = entry_bytes;
      outcome.inserted_bytes = entry_bytes;
      order_.splice(order_.end(), order_, entry.order_it);  // a refresh is a touch
      seq = entry.seq;
      refreshed = true;
      break;
    }
  }
  if (!refreshed) {
    seq = next_seq_++;
    order_.emplace_back(key.hash, seq);
    chain.push_back(Entry{seq, key.words, std::move(tmpl), std::move(pins), 0,
                          std::prev(order_.end())});
    Entry& entry = chain.back();
    entry.bytes = CountPlanHeapBytes(entry.words, *entry.tmpl, entry.pins);
    outcome.inserted_bytes = entry.bytes;
    ++count_;
    bytes_ += entry.bytes;
  }
  EvictWhileOverBudget(seq, &outcome);
  outcome.resident_bytes = bytes_;
  return outcome;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_.clear();
  order_.clear();
  count_ = 0;
  bytes_ = 0;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::size_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::int64_t PlanCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::int64_t PlanCache::evicted_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_bytes_;
}

std::size_t CountPlanHeapBytes(const std::vector<std::uint64_t>& key_words,
                               const Plan& plan_template,
                               const std::vector<std::shared_ptr<const void>>& pins) {
  // Fixed bookkeeping the entry occupies outside its own heap blocks: the
  // Entry slot in its bucket chain, the recency-list node, and the shared
  // Plan's control block + object (one make_shared allocation). The pinned
  // annotations/functions themselves are shared with the live registry and
  // are NOT charged — only the pin vector that references them is.
  std::size_t b = sizeof(std::uint64_t) * 2 + 4 * sizeof(void*);  // recency node
  b += 64;                                                        // Entry + chain slot share
  b += sizeof(Plan) + 4 * sizeof(void*);                          // make_shared block
  b += VecHeapBytes(key_words);
  b += VecHeapBytes(pins);
  b += VecHeapBytes(plan_template.stages);
  for (const Stage& stage : plan_template.stages) {
    b += VecHeapBytes(stage.buffers);
    b += VecHeapBytes(stage.funcs);
    for (const StageBuffer& buf : stage.buffers) {
      b += VecHeapBytes(buf.params);
    }
    for (const PlannedFunc& fn : stage.funcs) {
      b += VecHeapBytes(fn.args);
    }
  }
  return b;
}

PlanCache& GlobalPlanCache() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

}  // namespace mz
