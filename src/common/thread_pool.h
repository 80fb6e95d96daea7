// Fixed-size thread pool.
//
// Three users:
//  * the vecmath/matrix substrates run their *internal* parallel mode on a
//    pool (standing in for MKL's TBB-backed threading),
//  * Mozart's executor dispatches one task per worker per stage (the paper
//    uses static parallelism, §5.2), and
//  * the serving layer (core/session.h) shares ONE pool between many
//    concurrent sessions: RunOnAllWorkers is safe to call from multiple
//    threads at once — each call carries its own completion barrier, so
//    concurrent submissions interleave through the queue and each caller
//    blocks only on its own tasks. Admission control (core/admission.h)
//    bounds how many evaluations pile onto the queue, not correctness.
//
// ParallelFor partitions [0, n) into contiguous chunks, one per worker, which
// matches the static partitioning Mozart uses for split ranges.
#ifndef MOZART_COMMON_THREAD_POOL_H_
#define MOZART_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mz {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Runs fn(worker_index) on every worker and blocks until all return.
  // Worker 0 runs on the calling thread so a 1-thread pool has no handoff
  // cost and thread-count sweeps degrade gracefully.
  void RunOnAllWorkers(const std::function<void(int)>& fn);

  // Same, but on only `width` workers (clamped to [1, num_threads()]):
  // fn(0) on the calling thread plus width-1 queued tasks. Lets narrow work
  // (e.g. a small batch of serial jobs, core/batch.h) avoid waking the
  // whole pool.
  void RunOnWorkers(int width, const std::function<void(int)>& fn);

  // Statically partitions [begin, end) into one contiguous range per worker
  // and runs fn(range_begin, range_end) in parallel. Ranges may be empty.
  //
  // Composability: when called from inside any pool worker (this pool or
  // another), the loop runs inline on the calling thread. This is how nested
  // parallelism composes (TBB-style): a library's internal ParallelFor under
  // a Mozart executor worker degrades to serial instead of thrashing two
  // schedulers against each other.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t, std::int64_t)>& fn);

  // True on threads currently executing pool work (any pool).
  static bool InWorker();

  // Introspection for the serving layer's admission tuning: the current
  // queue depth.
  std::size_t queue_depth() const;

 private:
  struct Task {
    std::function<void(int)> fn;
    int worker_index = 0;
    std::shared_ptr<struct Barrier> barrier;
  };

  void WorkerLoop();

  std::vector<std::thread> threads_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<Task> queue_;
  bool shutdown_ = false;
};

// Returns a process-wide pool sized to the machine (used as the default by
// substrates when the caller does not pass one).
ThreadPool& GlobalPool();

}  // namespace mz

#endif  // MOZART_COMMON_THREAD_POOL_H_
