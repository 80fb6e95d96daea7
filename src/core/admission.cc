#include "core/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/fault.h"
#include "common/timer.h"
#include "core/splitter.h"

namespace mz {

namespace {

// Half-life (µs) of the queue-depth EWMA between observations: the stored
// depth is scaled by 2^(-elapsed/half_life) before each new sample folds in,
// so a burst's shrunk budget cannot outlive the burst.
constexpr double kDepthDecayHalfLifeUs = 2000.0;

AdmissionOptions FixedOptions(int tokens) {
  AdmissionOptions opts;
  opts.min_tokens = std::max(1, tokens);
  opts.max_tokens = opts.min_tokens;
  return opts;
}

AdmissionOptions Sanitize(AdmissionOptions opts) {
  opts.min_tokens = std::max(1, opts.min_tokens);
  opts.max_tokens = std::max(opts.min_tokens, opts.max_tokens);
  opts.base_cutoff_elems = std::max<std::int64_t>(0, opts.base_cutoff_elems);
  opts.max_cutoff_elems = std::max(opts.base_cutoff_elems, opts.max_cutoff_elems);
  opts.ewma_alpha = std::clamp(opts.ewma_alpha, 1e-3, 1.0);
  opts.congested_depth = std::max(1e-3, opts.congested_depth);
  return opts;
}

}  // namespace

AdmissionGate::AdmissionGate(int tokens) : adaptive_(false), opts_(FixedOptions(tokens)) {
  effective_tokens_ = opts_.max_tokens;
  effective_cutoff_ = 0;  // unused: cutoff_elems returns the fallback
}

AdmissionGate::AdmissionGate(const AdmissionOptions& opts)
    : adaptive_(true), opts_(Sanitize(opts)) {
  effective_tokens_ = opts_.max_tokens;        // idle until observed otherwise
  effective_cutoff_ = opts_.base_cutoff_elems;
}

AdmissionGate::~AdmissionGate() = default;

AdmissionGate::Ticket AdmissionGate::Acquire(std::uint64_t session, int weight,
                                             const CancelToken& cancel) {
  MZ_FAULT("admission.acquire");
  const std::int64_t deadline_ns = cancel.deadline_ns();
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) {
    throw OverloadError("admission gate draining; no new work admitted",
                        OverloadError::Kind::kDraining, 0);
  }
  // Fast path: a free token and nobody queued ahead. Never barge past
  // waiters — that is exactly the unfairness the scheduler exists to stop.
  if (rr_.empty() && in_use_ < effective_tokens_) {
    ++in_use_;
    return Ticket(this, session, NowNanos());
  }
  if (cancel.has_state()) {
    const std::int64_t now = NowNanos();
    if (cancel.cancelled()) {
      throw CancelledError("request cancelled before admission");
    }
    if (deadline_ns > 0 && now >= deadline_ns) {
      throw DeadlineError("deadline expired before admission");
    }
    // Load shedding: when hold-time history predicts the backlog alone
    // outlasts the deadline, reject now — queueing would only convert a
    // prompt, structured rejection into a deadline miss discovered late.
    if (deadline_ns > 0) {
      const std::int64_t est = EstimatedWaitNanosLocked();
      if (est > 0 && now + est > deadline_ns) {
        throw OverloadError(
            (internal::MessageStream()
             << "admission backlog (" << waiting_ << " waiting, " << in_use_ << "/"
             << effective_tokens_ << " tokens held) exceeds request deadline; predicted wait "
             << est / 1000 << "us")
                .str(),
            OverloadError::Kind::kBacklog, est / 1000);
      }
    }
  }
  Waiter self;
  auto [it, inserted] = queues_.try_emplace(session);
  SessionQueue& q = it->second;
  q.weight = std::max(1, weight);
  q.waiters.push_back(&self);
  if (inserted) {
    rr_.push_back(session);
  }
  ++waiting_;
  // A token may be free (e.g. the budget grew between the release that
  // drained the queue and this enqueue); let the scheduler hand it out in
  // policy order rather than waiting for the next release.
  if (ScheduleLocked()) {
    cv_.notify_all();
  }
  // Grants and withdrawals both happen under mu_, and `admitted` is
  // re-checked before withdrawing, so a granted token can never be
  // abandoned (the leak the chaos battery asserts against); an admitted
  // waiter keeps its token through a drain and finishes its evaluation.
  // Cancel() has no condition variable to poke, so a cancellable wait wakes
  // every few ms to observe it and the deadline bounds it exactly; an inert
  // token waits untimed for its grant or a drain.
  constexpr std::int64_t kCancelPollNs = 5'000'000;
  auto settled = [&] { return self.admitted || draining_; };
  while (!self.admitted) {
    const std::int64_t now = cancel.has_state() ? NowNanos() : 0;
    const bool cancelled = cancel.cancelled();
    if (cancelled || draining_ || (deadline_ns > 0 && now >= deadline_ns)) {
      RemoveWaiterLocked(session, &self);
      --waiting_;
      if (cancelled) {
        throw CancelledError("request cancelled while waiting for admission");
      }
      if (draining_) {
        throw OverloadError("admission gate draining; queued request rejected",
                            OverloadError::Kind::kDraining, 0);
      }
      throw DeadlineError("deadline expired while waiting for admission");
    }
    if (!cancel.has_state()) {
      cv_.wait(lock, settled);
      continue;
    }
    std::int64_t wake_ns = now + kCancelPollNs;
    if (deadline_ns > 0) {
      wake_ns = std::min(wake_ns, deadline_ns);
    }
    cv_.wait_for(lock, std::chrono::nanoseconds(wake_ns - now), settled);
  }
  return Ticket(this, session, NowNanos());
}

void AdmissionGate::RemoveWaiterLocked(std::uint64_t session, Waiter* waiter) {
  auto it = queues_.find(session);
  MZ_CHECK_MSG(it != queues_.end(), "AdmissionGate: withdrawing from an absent session queue");
  auto& dq = it->second.waiters;
  auto pos = std::find(dq.begin(), dq.end(), waiter);
  MZ_CHECK_MSG(pos != dq.end(), "AdmissionGate: withdrawing waiter not in its queue");
  dq.erase(pos);
  if (dq.empty()) {
    queues_.erase(it);
    auto rpos = std::find(rr_.begin(), rr_.end(), session);
    MZ_CHECK_MSG(rpos != rr_.end(), "AdmissionGate: queued session missing from rotation");
    rr_.erase(rpos);
  }
}

std::int64_t AdmissionGate::EstimatedWaitNanosLocked() const {
  if (ewma_hold_ns_ <= 0.0) {
    return 0;  // no hold history yet: cannot predict
  }
  const int tokens = std::max(1, effective_tokens_);
  // Everyone ahead (queued waiters plus current holders) retires `tokens`
  // at a time, one smoothed hold apart.
  const double rounds =
      std::ceil(static_cast<double>(waiting_ + in_use_) / static_cast<double>(tokens));
  return static_cast<std::int64_t>(rounds * ewma_hold_ns_);
}

std::int64_t AdmissionGate::EstimatedWaitNanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EstimatedWaitNanosLocked();
}

std::int64_t AdmissionGate::ewma_hold_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(ewma_hold_ns_);
}

void AdmissionGate::SetQuota(std::uint64_t session, double evals_per_sec, double burst) {
  SetBucket(quotas_, session, evals_per_sec, burst);
}

void AdmissionGate::DropQuota(std::uint64_t session) { DropBucket(quotas_, session); }

void AdmissionGate::ChargeQuota(std::uint64_t session) {
  ChargeBucket(quotas_, session, 1, "evals");
}

void AdmissionGate::SetByteQuota(std::uint64_t session, double bytes_per_sec, double burst) {
  SetBucket(byte_quotas_, session, bytes_per_sec, burst);
}

void AdmissionGate::DropByteQuota(std::uint64_t session) { DropBucket(byte_quotas_, session); }

void AdmissionGate::ChargeBytes(std::uint64_t session, std::int64_t bytes) {
  if (bytes <= 0) {
    return;  // unsized plans (and zero-byte ones) are not charged
  }
  ChargeBucket(byte_quotas_, session, bytes, "bytes");
}

void AdmissionGate::SetBucket(QuotaMap& buckets, std::uint64_t session, double rate,
                              double burst) {
  std::lock_guard<std::mutex> lock(mu_);
  QuotaBucket& b = buckets[session];
  b.rate = std::max(0.0, rate);
  b.burst = burst > 0.0 ? burst : std::max(1.0, b.rate * 0.25);
  if (b.refs == 0) {
    b.tokens = b.burst;  // fresh bucket starts full
    b.last_refill_ns = NowNanos();
  }
  b.tokens = std::min(b.tokens, b.burst);
  ++b.refs;
}

void AdmissionGate::DropBucket(QuotaMap& buckets, std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets.find(session);
  if (it == buckets.end()) {
    return;
  }
  if (--it->second.refs <= 0) {
    buckets.erase(it);
  }
}

void AdmissionGate::ChargeBucket(QuotaMap& buckets, std::uint64_t session, std::int64_t amount,
                                 const char* unit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    throw OverloadError("admission gate draining; no new work admitted",
                        OverloadError::Kind::kDraining, 0);
  }
  auto it = buckets.find(session);
  if (it == buckets.end()) {
    return;  // no quota of this kind installed for this tenant
  }
  QuotaBucket& b = it->second;
  const std::int64_t now = NowNanos();
  if (b.rate > 0.0 && now > b.last_refill_ns) {
    b.tokens = std::min(b.burst,
                        b.tokens + static_cast<double>(now - b.last_refill_ns) * 1e-9 * b.rate);
  }
  b.last_refill_ns = now;
  const double need = static_cast<double>(amount);
  // Normal charge, or the oversized-request escape hatch: a request bigger
  // than the whole burst admits once the bucket is full, leaving the bucket
  // in debt. Debt self-repays at `rate`, so oversized requests still pace
  // at the configured average rate instead of being unservable forever.
  if (b.tokens >= need || (need > b.burst && b.tokens >= b.burst)) {
    b.tokens -= need;
    return;
  }
  // The honest refill time: what is still missing before THIS request
  // (capped at a full bucket for oversized ones) could admit — the same
  // structured backpressure signal shedding uses.
  const double missing = std::min(need, b.burst) - b.tokens;
  const std::int64_t retry_us =
      b.rate > 0.0 ? static_cast<std::int64_t>(std::ceil(missing / b.rate * 1e6))
                   : std::numeric_limits<std::int64_t>::max();
  throw OverloadError((internal::MessageStream()
                       << "tenant " << session << " quota exhausted (" << amount << " " << unit
                       << " requested, " << b.rate << " " << unit << "/s, burst " << b.burst
                       << ")")
                          .str(),
                      OverloadError::Kind::kQuota, retry_us);
}

void AdmissionGate::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  // Wake every queued waiter; each withdraws itself and throws kDraining.
  cv_.notify_all();
}

bool AdmissionGate::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool AdmissionGate::ScheduleLocked() {
  bool admitted_any = false;
  while (in_use_ < effective_tokens_ && !rr_.empty()) {
    const std::uint64_t sid = rr_.front();
    auto it = queues_.find(sid);
    MZ_CHECK_MSG(it != queues_.end(), "AdmissionGate: rotation names an absent session");
    SessionQueue& q = it->second;
    // Earn a turn's worth of service on entering the front. Tokens usually
    // free one at a time, so a turn spans several ScheduleLocked calls; the
    // leftover deficit (>= 1) marks a turn in progress and must not be
    // topped up again, or weights would stop mattering.
    if (q.deficit < 1.0) {
      q.deficit += q.weight;
    }
    while (!q.waiters.empty() && q.deficit >= 1.0 && in_use_ < effective_tokens_) {
      q.waiters.front()->admitted = true;
      q.waiters.pop_front();
      q.deficit -= 1.0;
      ++in_use_;
      --waiting_;
      admitted_any = true;
    }
    if (q.waiters.empty()) {
      rr_.pop_front();
      queues_.erase(it);  // deficit does not persist across idle periods
    } else if (q.deficit < 1.0) {
      rr_.pop_front();
      rr_.push_back(sid);  // turn spent, still backlogged: next round
    }
    // else: tokens ran out mid-turn; the outer condition exits and the
    // session resumes its turn at the front on the next release.
  }
  return admitted_any;
}

void AdmissionGate::Observe(std::size_t queue_depth) {
  ObserveAtNanos(queue_depth, NowNanos());
}

void AdmissionGate::ObserveAtNanos(std::size_t queue_depth, std::int64_t now_ns) {
  if (!adaptive_) {
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (last_observe_ns_ != 0 && now_ns > last_observe_ns_) {
      const double elapsed_us = static_cast<double>(now_ns - last_observe_ns_) * 1e-3;
      ewma_depth_ *= std::exp2(-elapsed_us / kDepthDecayHalfLifeUs);
    }
    last_observe_ns_ = now_ns;
    ewma_depth_ = opts_.ewma_alpha * static_cast<double>(queue_depth) +
                  (1.0 - opts_.ewma_alpha) * ewma_depth_;
    const int before = effective_tokens_;
    RecomputeLocked();
    if (effective_tokens_ > before) {
      wake = ScheduleLocked();  // a larger budget may admit blocked acquirers
    }
  }
  if (wake) {
    cv_.notify_all();
  }
}

void AdmissionGate::RecomputeLocked() {
  // load in [0, 1]: 0 = idle pool, 1 = smoothed depth at/past congestion.
  const double load = std::min(1.0, ewma_depth_ / opts_.congested_depth);
  effective_tokens_ =
      opts_.max_tokens -
      static_cast<int>(std::llround(load * static_cast<double>(opts_.max_tokens - opts_.min_tokens)));
  effective_cutoff_ =
      opts_.base_cutoff_elems +
      static_cast<std::int64_t>(
          load * static_cast<double>(opts_.max_cutoff_elems - opts_.base_cutoff_elems));
}

int AdmissionGate::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return effective_tokens_;
}

std::int64_t AdmissionGate::cutoff_elems(std::int64_t fallback) const {
  if (!adaptive_) {
    return fallback;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return effective_cutoff_;
}

double AdmissionGate::ewma_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_depth_;
}

int AdmissionGate::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

int AdmissionGate::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

void AdmissionGate::ReleaseToken(std::int64_t grant_ns) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MZ_CHECK_MSG(in_use_ > 0, "AdmissionGate: release without acquire");
    --in_use_;
    // Hold-time EWMA feeds the shedding prediction; reuse the depth EWMA's
    // alpha so one knob tunes both smoothers.
    const std::int64_t held_ns = std::max<std::int64_t>(0, NowNanos() - grant_ns);
    ewma_hold_ns_ = opts_.ewma_alpha * static_cast<double>(held_ns) +
                    (1.0 - opts_.ewma_alpha) * ewma_hold_ns_;
    wake = ScheduleLocked();
  }
  if (wake) {
    cv_.notify_all();
  }
}

void AdmissionGate::Ticket::Release() {
  if (gate_ != nullptr) {
    gate_->ReleaseToken(grant_ns_);
    gate_ = nullptr;
  }
}

PlanSizeEstimate EstimatePlanSize(const Plan& plan, const TaskGraph& graph,
                                  const Registry& registry) {
  PlanSizeEstimate est;
  // Running bounds over every sized input of *any* stage (serial included):
  // a later stage whose split inputs are all produced by this plan inherits
  // these, since element-wise pipelines cannot grow their data past what
  // entered the plan.
  std::int64_t inherit_elems = 0;
  std::int64_t inherit_bytes = 0;
  bool anything_sized = false;
  for (const Stage& stage : plan.stages) {
    std::int64_t stage_elems = 0;
    std::int64_t stage_width = 0;  // widest sized input, bytes per element
    bool sized = false;
    bool pending_input = false;
    for (const StageBuffer& def : stage.buffers) {
      if (!def.is_input) {
        continue;
      }
      // Deferred parameters are computed by the executor; re-deriving them
      // here risks an Info call with parameters the split type cannot
      // produce early (MZ_CHECK aborts, not throws). Skip such buffers —
      // another input of the stage usually sizes it.
      if (def.params_deferred) {
        continue;
      }
      const Slot& slot = graph.slot(def.slot);
      if (!slot.value.has_value()) {
        // Produced by an earlier stage of this same plan (e.g. a
        // Future-chained pipeline or the steady-state EvalStream shape):
        // nothing to measure yet, but the producer's inputs bound it.
        pending_input = true;
        continue;
      }
      try {
        InternedId name = def.split_name;
        std::vector<std::int64_t> late_params;
        std::span<const std::int64_t> params = def.params;
        if (def.use_default_split) {
          auto dflt = registry.DefaultSplitTypeFor(slot.value.type());
          if (!dflt.has_value()) {
            continue;
          }
          name = *dflt;
          late_params = registry.RunLateCtor(name, slot.value);
          params = late_params;
        }
        const Splitter* splitter = registry.FindSplitter(name, slot.value.type());
        if (splitter == nullptr) {
          continue;
        }
        const RuntimeInfo info = splitter->Info(slot.value, params);
        stage_elems = std::max(stage_elems, info.total_elements);
        std::int64_t width = info.bytes_per_element;
        if (width <= 0) {
          // Arithmetic splits (SizeSplit) expose no width; the planner's
          // footprint annotation may still know it.
          width = def.elem_bytes_hint > 0 ? def.elem_bytes_hint : kNominalElemBytes;
        }
        stage_width = std::max(stage_width, width);
        sized = true;
      } catch (...) {
        // Sizing is best-effort; leave this input unsized and fall through.
      }
    }
    if (sized) {
      const std::int64_t stage_bytes = stage_elems * std::max(stage_width, kNominalElemBytes);
      inherit_elems = std::max(inherit_elems, stage_elems);
      inherit_bytes = std::max(inherit_bytes, stage_bytes);
      anything_sized = true;
      if (!stage.serial) {
        est.elems = std::max(est.elems, stage_elems);
        est.bytes = std::max(est.bytes, stage_bytes);
      }
    } else if (pending_input && anything_sized) {
      if (!stage.serial) {
        est.elems = std::max(est.elems, inherit_elems);
        est.bytes = std::max(est.bytes, inherit_bytes);
      }
    } else if (!stage.serial) {
      // A parallel stage with no sizable input and no sized ancestor:
      // cannot bound this plan's work before execution.
      est.elems = std::numeric_limits<std::int64_t>::max();
      est.bytes = std::numeric_limits<std::int64_t>::max();
      est.sized = false;
      return est;
    }
  }
  return est;
}

}  // namespace mz
