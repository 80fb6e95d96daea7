// Cross-session micro-batching of small evaluations.
//
// Small plans run inline on their caller (admission.h), so each one is cheap
// — but under many concurrent sessions a storm of small evaluations still
// pays one scheduler wake-up per plan, and any that do touch the shared pool
// pay a full dispatch each. The paper's §6 batching result is that
// amortizing per-invocation overhead across requests is where small-request
// throughput comes from; the BatchCollector applies that across sessions:
//
//   * a session with a small plan hands the collector a closure that runs
//     the whole plan serially (the session's 1-thread inline pool);
//   * the first arrival becomes the batch *leader* and waits for other
//     sessions' plans only as long as the arrival rate predicts one could
//     show up: the collector smooths the inter-arrival gap (EWMA) and a
//     leader waits min(window_us, 2 x smoothed gap) — zero with no gap
//     history or when arrivals are farther apart than the window, so a lone
//     client never pays the window. Followers just enqueue and wait;
//   * the window closes on max_batch arrivals, on timeout, or on an
//     explicit Flush (a session teardown closes it once every session left
//     already rides in it, so a leader never waits out the window for
//     riders that can no longer arrive);
//   * the leader dispatches the whole batch as ONE ThreadPool submission —
//     workers claim jobs from the batch, so N small plans cost one handoff
//     instead of N. A batch of one skips the pool entirely and runs on the
//     leader's own thread, which is exactly the unbatched inline path.
//
// Memory ordering: a submitter's graph writes happen-before its job is
// published (collector mutex), the pool's queue mutex publishes the batch to
// workers, the dispatch barrier publishes results back to the leader, and
// the collector mutex + done-flag publish them to followers. Jobs never
// block, so batches cannot deadlock behind one another.
#ifndef MOZART_CORE_BATCH_H_
#define MOZART_CORE_BATCH_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"

namespace mz {

class EvalStats;

struct BatchOptions {
  std::int64_t window_us = 200;  // upper bound on a leader's wait for riders
  int max_batch = 8;             // close the window early at this many jobs
};

class BatchCollector {
 public:
  BatchCollector(ThreadPool* pool, BatchOptions opts);
  ~BatchCollector();

  BatchCollector(const BatchCollector&) = delete;
  BatchCollector& operator=(const BatchCollector&) = delete;

  // Runs `job`, possibly coalesced with other threads' jobs into one pool
  // dispatch. Blocks until the job has run; rethrows anything it threw.
  // `job` must not block (in particular: must not re-enter the collector or
  // wait on admission) — batches are only deadlock-free because every job
  // runs to completion on whatever thread claims it. When `stats` is given
  // and this call leads a batch, the window it chose is added to
  // stats->batch_window_adapted_us.
  //
  // `deadline_ns` (NowNanos clock, 0 = none) keeps deadline-bearing jobs
  // out of windows they cannot afford: a leader clamps its window so it
  // never sleeps past its own deadline, and a would-be rider whose deadline
  // falls inside the open batch's predicted dispatch time skips the batch
  // and runs solo on the caller immediately (counted in
  // deadline_bypasses()) instead of missing its deadline waiting for the
  // window to close.
  void Run(std::function<void()> job, EvalStats* stats = nullptr, std::int64_t deadline_ns = 0);

  // Closes the currently open window (if any) so its leader dispatches
  // immediately instead of sleeping out the remaining window. Does not wait
  // for the dispatch to finish.
  void Flush();

  // Flush, but only when each of `owners` already has a job in the open
  // window, so none of them can still arrive as a rider. Owners are the
  // `stats` the jobs were submitted with (one per session).
  void FlushIfAllRiding(const std::vector<const EvalStats*>& owners);

  const BatchOptions& options() const { return opts_; }

  // Introspection (tests, benches): totals are cumulative.
  std::int64_t jobs() const;           // jobs ever submitted
  std::int64_t dispatches() const;     // batches dispatched
  std::int64_t coalesced_jobs() const; // jobs that rode in a batch of >= 2
  int max_batch_seen() const;
  double ewma_gap_us() const;          // smoothed inter-arrival gap (-1 until 2 arrivals)
  std::int64_t adapted_window_us_total() const;  // sum of leader windows
  std::int64_t deadline_bypasses() const;  // jobs that skipped a batch for their deadline

 private:
  struct Job {
    std::function<void()>* fn = nullptr;
    const EvalStats* owner = nullptr;  // Run's `stats`
    std::exception_ptr error;
    bool ran = false;  // claimed by a dispatch worker (dispatch-failure guard)
  };
  struct Batch {
    std::vector<Job*> jobs;
    bool closed = false;  // no further riders may join
    bool done = false;    // dispatch finished; results visible
    // Leader's predicted dispatch time (arrival + effective window, ns);
    // riders with earlier deadlines bypass the batch. Set once by the
    // leader under mu_ before any rider can observe the batch.
    std::int64_t dispatch_by_ns = 0;
  };

  void Dispatch(Batch& batch);  // runs without mu_
  std::int64_t EffectiveWindowUsLocked() const;

  ThreadPool* pool_;
  const BatchOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_open_;  // leader waits here for the window
  std::condition_variable cv_done_;  // followers wait here for results
  std::shared_ptr<Batch> open_;      // batch currently accepting riders

  std::int64_t jobs_ = 0;
  std::int64_t dispatches_ = 0;
  std::int64_t coalesced_jobs_ = 0;
  int max_batch_seen_ = 0;
  // Window-prediction state: arrival times feed the gap EWMA.
  std::int64_t last_arrival_ns_ = 0;
  double ewma_gap_us_ = -1.0;  // < 0 until two arrivals have been seen
  std::int64_t adapted_window_us_total_ = 0;
  std::int64_t deadline_bypasses_ = 0;
};

}  // namespace mz

#endif  // MOZART_CORE_BATCH_H_
