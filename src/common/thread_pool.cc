#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"
#include "common/cpu.h"

namespace mz {
namespace {

thread_local bool tls_in_pool_worker = false;

// RAII marker for "this thread is running pool work".
struct WorkerMark {
  bool previous;
  WorkerMark() : previous(tls_in_pool_worker) { tls_in_pool_worker = true; }
  ~WorkerMark() { tls_in_pool_worker = previous; }
};

}  // namespace

// Completion barrier shared by the tasks of one RunOnAllWorkers call.
struct Barrier {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;

  void Arrive() {
    std::lock_guard<std::mutex> lock(mu);
    if (--pending == 0) {
      cv.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

ThreadPool::ThreadPool(int num_threads) {
  MZ_CHECK_MSG(num_threads >= 1, "thread pool needs at least one thread");
  // Worker 0 is the calling thread; spawn the rest.
  threads_.reserve(static_cast<std::size_t>(num_threads));
  threads_.emplace_back();  // placeholder slot for the inline worker 0
  for (int i = 1; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown with nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    {
      WorkerMark mark;
      task.fn(task.worker_index);
    }
    task.barrier->Arrive();
  }
}

bool ThreadPool::InWorker() { return tls_in_pool_worker; }

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::RunOnAllWorkers(const std::function<void(int)>& fn) {
  RunOnWorkers(num_threads(), fn);
}

void ThreadPool::RunOnWorkers(int width, const std::function<void(int)>& fn) {
  int n = std::clamp(width, 1, num_threads());
  if (n == 1) {
    WorkerMark mark;
    fn(0);
    return;
  }
  auto barrier = std::make_shared<Barrier>();
  barrier->pending = n - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 1; i < n; ++i) {
      queue_.push(Task{fn, i, barrier});
    }
  }
  if (n == num_threads()) {
    cv_.notify_all();
  } else {
    for (int i = 1; i < n; ++i) {
      cv_.notify_one();  // wake only as many sleepers as there are tasks
    }
  }
  {
    WorkerMark mark;
    fn(0);
  }
  barrier->Wait();
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t, std::int64_t)>& fn) {
  std::int64_t total = std::max<std::int64_t>(0, end - begin);
  if (total == 0) {
    return;
  }
  if (InWorker()) {
    fn(begin, end);  // nested: run inline (composable parallelism)
    return;
  }
  std::int64_t n = num_threads();
  std::int64_t chunk = (total + n - 1) / n;
  RunOnAllWorkers([&](int worker) {
    std::int64_t lo = begin + chunk * worker;
    std::int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) {
      fn(lo, hi);
    }
  });
}

ThreadPool& GlobalPool() {
  static ThreadPool* pool = new ThreadPool(NumLogicalCpus());
  return *pool;
}

}  // namespace mz
