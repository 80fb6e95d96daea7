#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/check.h"
#include "common/fault.h"
#include "common/timer.h"
#include "core/stats.h"

namespace mz {

namespace {

// EWMA weight of one new inter-arrival gap.
constexpr double kArrivalEwmaAlpha = 0.25;

}  // namespace

BatchCollector::BatchCollector(ThreadPool* pool, BatchOptions opts)
    : pool_(pool), opts_([&] {
        BatchOptions o = opts;
        o.window_us = std::max<std::int64_t>(0, o.window_us);
        o.max_batch = std::max(1, o.max_batch);
        return o;
      }()) {
  MZ_CHECK_MSG(pool_ != nullptr, "BatchCollector needs a pool");
}

std::int64_t BatchCollector::EffectiveWindowUsLocked() const {
  // No gap history yet, or arrivals are (smoothed) farther apart than the
  // window: no rider is predicted to show up in time — don't wait for one.
  if (ewma_gap_us_ < 0.0 || ewma_gap_us_ >= static_cast<double>(opts_.window_us)) {
    return 0;
  }
  // A rider is predicted within ~ewma_gap; wait two gaps (jitter slack) but
  // never longer than the configured window.
  const auto predicted = static_cast<std::int64_t>(2.0 * ewma_gap_us_) + 1;
  return std::min<std::int64_t>(opts_.window_us, predicted);
}

BatchCollector::~BatchCollector() {
  // Callers must have drained (Run blocks, so a live Run keeps its
  // ServingContext — and therefore this collector — alive). A stray open
  // batch here would mean a Run is still in flight.
  Flush();
}

void BatchCollector::Run(std::function<void()> fn, EvalStats* stats, std::int64_t deadline_ns) {
  Job job;
  job.fn = &fn;
  job.owner = stats;

  std::unique_lock<std::mutex> lock(mu_);
  // A deadline that would expire inside the open batch's window must not
  // ride (it would sleep out the leader's wait and miss) — run it solo on
  // the caller right away. Checked before this job joins any batch, so the
  // bypass never strands a leader or reorders a batch's job list.
  if (deadline_ns > 0 && open_ != nullptr && !open_->closed &&
      open_->dispatch_by_ns > deadline_ns) {
    ++jobs_;
    ++deadline_bypasses_;
    lock.unlock();
    fn();  // solo: exactly the unbatched inline path; exceptions propagate
    return;
  }
  ++jobs_;
  const std::int64_t now_ns = NowNanos();
  if (last_arrival_ns_ > 0 && now_ns > last_arrival_ns_) {
    // Cap one long idle gap at a few windows so the EWMA recovers within a
    // handful of arrivals when a burst starts (an uncapped overnight gap
    // would pin the prediction at "no riders" through the whole burst).
    const double gap_us = std::min(static_cast<double>(now_ns - last_arrival_ns_) * 1e-3,
                                   8.0 * static_cast<double>(opts_.window_us));
    ewma_gap_us_ = ewma_gap_us_ < 0.0
                       ? gap_us
                       : kArrivalEwmaAlpha * gap_us + (1.0 - kArrivalEwmaAlpha) * ewma_gap_us_;
  }
  last_arrival_ns_ = now_ns;
  bool leader = false;
  if (open_ == nullptr || open_->closed) {
    open_ = std::make_shared<Batch>();
    leader = true;
  }
  std::shared_ptr<Batch> batch = open_;
  batch->jobs.push_back(&job);
  if (static_cast<int>(batch->jobs.size()) >= opts_.max_batch) {
    batch->closed = true;
    if (!leader) {
      cv_open_.notify_all();  // wake the leader: the batch is full
    }
  }

  if (leader) {
    std::int64_t window_us = EffectiveWindowUsLocked();
    if (deadline_ns > 0) {
      // A leader never sleeps past its own deadline: clamp the window to
      // the time remaining (a sub-window margin is pointless — the job
      // itself still has to run).
      const std::int64_t remaining_us = (deadline_ns - NowNanos()) / 1000;
      window_us = std::clamp<std::int64_t>(remaining_us, 0, window_us);
    }
    batch->dispatch_by_ns = NowNanos() + window_us * 1000;
    adapted_window_us_total_ += window_us;
    if (stats != nullptr) {
      stats->batch_window_adapted_us.fetch_add(window_us, std::memory_order_relaxed);
    }
    if (window_us > 0 && !batch->closed) {
      cv_open_.wait_for(lock, std::chrono::microseconds(window_us),
                        [&] { return batch->closed; });
    }
    batch->closed = true;  // timeout path: close against late riders
    if (open_ == batch) {
      open_.reset();
    }
    const int size = static_cast<int>(batch->jobs.size());
    max_batch_seen_ = std::max(max_batch_seen_, size);
    if (size > 1) {
      coalesced_jobs_ += size;
    }
    ++dispatches_;
    lock.unlock();
    // Scope-guarded dispatch: if Dispatch itself throws (pool submission
    // failure, injected fault) the batch must STILL be marked done and its
    // followers woken — an unwinding leader that left done=false would
    // strand every follower in cv_done_ forever. Jobs the dispatch never
    // reached inherit the dispatch error so no follower returns as if its
    // job had run.
    std::exception_ptr dispatch_error;
    try {
      Dispatch(*batch);
    } catch (...) {
      dispatch_error = std::current_exception();
    }
    lock.lock();
    if (dispatch_error) {
      for (Job* j : batch->jobs) {
        if (!j->ran && !j->error) {
          j->error = dispatch_error;
        }
      }
    }
    batch->done = true;
    cv_done_.notify_all();
  } else {
    cv_done_.wait(lock, [&] { return batch->done; });
  }
  lock.unlock();

  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

void BatchCollector::Dispatch(Batch& batch) {
  MZ_FAULT("batch.dispatch");
  auto run_one = [](Job* job) {
    job->ran = true;
    try {
      (*job->fn)();
    } catch (...) {
      job->error = std::current_exception();
    }
  };
  if (batch.jobs.size() == 1 || pool_->queue_depth() > 0) {
    // A batch of one has nothing to amortize, and a backed-up pool would
    // make every rider wait behind someone else's full-width stages — the
    // exact coupling inline execution exists to avoid. Run the batch on the
    // leader's thread: coalescing still amortizes the riders' wake-ups.
    for (Job* job : batch.jobs) {
      run_one(job);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  // Width-bounded: a batch of K wakes K workers (the leader included), not
  // the whole pool.
  pool_->RunOnWorkers(static_cast<int>(batch.jobs.size()), [&](int) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < batch.jobs.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      run_one(batch.jobs[i]);
    }
  });
}

void BatchCollector::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_ != nullptr && !open_->closed) {
    open_->closed = true;
    cv_open_.notify_all();
  }
}

void BatchCollector::FlushIfAllRiding(const std::vector<const EvalStats*>& owners) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_ == nullptr || open_->closed) {
    return;
  }
  for (const EvalStats* owner : owners) {
    if (std::none_of(open_->jobs.begin(), open_->jobs.end(),
                     [owner](const Job* job) { return job->owner == owner; })) {
      return;
    }
  }
  open_->closed = true;
  cv_open_.notify_all();
}

std::int64_t BatchCollector::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_;
}

std::int64_t BatchCollector::dispatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatches_;
}

std::int64_t BatchCollector::coalesced_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesced_jobs_;
}

int BatchCollector::max_batch_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_batch_seen_;
}

double BatchCollector::ewma_gap_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_gap_us_;
}

std::int64_t BatchCollector::adapted_window_us_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return adapted_window_us_total_;
}

std::int64_t BatchCollector::deadline_bypasses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_bypasses_;
}

}  // namespace mz
