#include "core/session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/cpu.h"
#include "common/fault.h"
#include "common/timer.h"

namespace mz {

ServingContext::ServingContext(ServingOptions opts) : opts_(opts) {
  int threads = opts_.pool_threads > 0 ? opts_.pool_threads : NumLogicalCpus();
  opts_.pool_threads = threads;
  pool_ = std::make_unique<ThreadPool>(threads);

  const int tokens = opts_.max_pool_sessions > 0 ? opts_.max_pool_sessions : 2;
  opts_.max_pool_sessions = tokens;
  if (opts_.adaptive_admission) {
    AdmissionOptions tuning = opts_.admission_tuning;
    if (tuning.max_tokens <= 0) {
      tuning.max_tokens = tokens;
    }
    if (tuning.base_cutoff_elems <= 0) {
      tuning.base_cutoff_elems = opts_.serial_cutoff_elems;
    }
    if (tuning.max_cutoff_elems <= 0) {
      tuning.max_cutoff_elems = 16 * tuning.base_cutoff_elems;
    }
    opts_.admission_tuning = tuning;
    admission_ = std::make_unique<AdmissionGate>(tuning);
  } else {
    admission_ = std::make_unique<AdmissionGate>(tokens);
  }

  if (opts_.plan_cache != nullptr) {
    plan_cache_ = opts_.plan_cache;
  } else {
    owned_plan_cache_ = std::make_unique<PlanCache>(PlanCacheOptions{
        .max_entries = opts_.plan_cache_entries,
        .max_bytes = opts_.plan_cache_bytes,
    });
    plan_cache_ = owned_plan_cache_.get();
  }

  if (opts_.batch_window_us > 0) {
    batcher_ = std::make_unique<BatchCollector>(
        pool_.get(),
        BatchOptions{.window_us = opts_.batch_window_us, .max_batch = opts_.batch_max_plans});
  }
}

ServingContext::~ServingContext() = default;

ServingContext& ServingContext::Default() {
  static ServingContext* context = new ServingContext(ServingOptions{
      .pool_threads = 0,
      .max_pool_sessions = 2,
      .serial_cutoff_elems = 4096,
      .plan_cache_entries = 1024,
      .plan_cache = &GlobalPlanCache(),
  });
  return *context;
}

void ServingContext::Register(Session* session) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.insert(session);
}

void ServingContext::Unregister(Session* session) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(session);
  retired_.Accumulate(session->stats().Take());
  // Once every session left already has a job in the open batch window, no
  // rider can still arrive: wake the waiting leader rather than let it sleep
  // out the window. While some session could still ride, the arrival
  // predictor keeps deciding how long the leader waits.
  if (batcher_ != nullptr) {
    std::vector<const EvalStats*> live;
    for (Session* other : sessions_) {
      live.push_back(&other->stats());
    }
    batcher_->FlushIfAllRiding(live);
  }
}

bool ServingContext::AdoptProcessDefault() {
  RuntimeOptions rt;
  rt.shared_pool = pool_.get();
  rt.plan_cache = plan_cache_;
  rt.admission = admission_.get();
  rt.serial_cutoff_elems = opts_.serial_cutoff_elems;
  rt.batcher = batcher_.get();
  return Runtime::SetDefaultOptions(rt);
}

EvalStats::Snapshot ServingContext::AggregateStats() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  EvalStats::Snapshot total = retired_.Take();
  for (Session* session : sessions_) {
    total.Add(session->stats().Take());
  }
  return total;
}

int ServingContext::num_live_sessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

bool ServingContext::Drain(std::int64_t deadline_ns) {
  MZ_FAULT("context.drain");
  // 1. Stop admitting: new evaluations reject with kDraining at the quota
  //    choke point, queued waiters wake and withdraw via the same unwind
  //    the timed waits use (no leaked tokens, waiting() stays exact).
  admission_->BeginDrain();
  // 2. Flush the batch collector: an open window's leader dispatches now
  //    instead of sleeping out a window for riders drain already rejected.
  if (batcher_ != nullptr) {
    batcher_->Flush();
  }
  // 3. Await in-flight pooled work. Cancellation is cooperative and clients
  //    hold the CancelSources, so drain does not revoke anything — it waits
  //    for holders to finish (or for their own deadlines to unwind them),
  //    bounded by the drain deadline.
  for (;;) {
    if (admission_->in_use() == 0 && admission_->waiting() == 0) {
      return true;
    }
    const std::int64_t now = NowNanos();
    if (deadline_ns > 0 && now >= deadline_ns) {
      return false;
    }
    std::int64_t nap_ns = 1'000'000;  // 1 ms quiescence poll
    if (deadline_ns > 0) {
      nap_ns = std::min(nap_ns, deadline_ns - now);
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(nap_ns));
  }
}

Session::Session(SessionOptions opts)
    : serving_(opts.serving != nullptr ? opts.serving : &ServingContext::Default()) {
  // The admission identity and quotas are SessionOptions' own fields; set on
  // `runtime`, they would be overwritten below without a word.
  const RuntimeOptions unset;
  for (const auto& [set, field] :
       {std::pair{opts.runtime.admission_session != unset.admission_session, "admission_session"},
        std::pair{opts.runtime.admission_weight != unset.admission_weight, "admission_weight"},
        std::pair{opts.runtime.quota_evals_per_sec != unset.quota_evals_per_sec,
                  "quota_evals_per_sec"},
        std::pair{opts.runtime.quota_bytes_per_sec != unset.quota_bytes_per_sec,
                  "quota_bytes_per_sec"}}) {
    MZ_THROW_IF(set, "SessionOptions::runtime." << field << " is ignored; set SessionOptions::"
                                                 << field << " instead");
  }
  RuntimeOptions rt_opts = opts.runtime;
  rt_opts.shared_pool = &serving_->pool();
  rt_opts.plan_cache = &serving_->plan_cache();
  rt_opts.admission = &serving_->admission();
  rt_opts.serial_cutoff_elems = serving_->options().serial_cutoff_elems;
  rt_opts.batcher = serving_->batcher();
  // Every session presents an admission identity; ids never repeat within a
  // process, so an auto-assigned session can't collide with a tenant id a
  // server handed out from the same counter's range by accident.
  static std::atomic<std::uint64_t> next_session_id{1};
  rt_opts.admission_session = opts.admission_session != 0
                                  ? opts.admission_session
                                  : next_session_id.fetch_add(1, std::memory_order_relaxed);
  rt_opts.admission_weight = std::max(1, opts.admission_weight);
  rt_opts.quota_evals_per_sec = opts.quota_evals_per_sec;
  rt_opts.quota_bytes_per_sec = opts.quota_bytes_per_sec;
  runtime_ = std::make_unique<Runtime>(rt_opts);
  serving_->Register(this);
}

Session::~Session() { serving_->Unregister(this); }

}  // namespace mz
