// Shared pieces of the benchmark binary: command-line arguments, the raw
// result every workload fills in, and the batch-workload interface.
//
// The binary measures and records; perfbench/run.py turns the raw
// result (and, in a traced run, the span dump) into the named metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/runtime.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_path;    // raw result JSON
  std::string trace_path;  // span dump (traced runs only)
  // Corrupts one element of one evaluation's output before its check, to
  // show the check catches it (the result must then report a failure).
  bool corrupt = false;
};

// CPU time of the whole process (user + system, every thread), in ns. With
// paravirtual steal-time accounting it excludes time the host gave the vCPU
// to another guest, so it does not grow when the host is busy, as wall time
// does (README.md, steadiness record).
inline std::int64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// What one run measured, before any statistic is taken.
struct RawResult {
  // One entry per repeated set-up: wall time and process CPU time.
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  // Timed window: latency (ms) of every attempt that completed correctly.
  std::vector<double> latency_ms;
  // Batch workloads: process CPU time (ms) of each of those evaluations.
  std::vector<double> cpu_ms;
  double window_s = 0;
  // Process CPU time spent in the timed window.
  double window_cpu_s = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures;  // reason -> count
  // Untraced p50 measured inside a traced run (for trace.overhead_pct).
  std::vector<double> untraced_latency_ms;
  // Workload-specific numbers copied verbatim into the output (and the
  // trace dump's meta), e.g. the serving latency limit or computed bytes.
  std::map<std::string, double> extra;
};

// Records the time the runtime starts evaluating: installed as the
// pre-evaluate hook in traced runs, it marks where capture ends, including
// evaluations a Future::get triggers.
struct EvalMark {
  std::int64_t ns = 0;
  void Install(mz::Runtime& rt) {
    rt.set_pre_evaluate_hook([this] { ns = mz::NowNanos(); });
  }
};

// Future::get, recorded as a "future.get" span with the evaluation it forced
// (from the pre-evaluate mark to the return) as an "evaluate" child.
template <typename F>
auto TimedGet(const F& future, Tracer& tracer, const EvalMark& mark, int parent,
              std::int64_t request) {
  const std::int64_t t0 = tracer.enabled() ? mz::NowNanos() : 0;
  auto value = future.get();
  if (tracer.enabled()) {
    const std::int64_t t1 = mz::NowNanos();
    const int id = tracer.NewId();
    tracer.Span(id, "future.get", t0, t1, parent, request);
    if (mark.ns >= t0) {
      tracer.Span(tracer.NewId(), "evaluate", mark.ns, t1, id, request);
    }
  }
  return value;
}

// One batch workload: a fixed library pipeline evaluated repeatedly through
// one Mozart runtime, each evaluation checked against the eager library.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;

  mz::Runtime& runtime() { return *runtime_; }
  EvalMark& mark() { return mark_; }

  // Untimed, before every evaluation: restores inputs the pipeline mutates
  // and poisons outputs so a skipped evaluation cannot pass the check.
  virtual void Prepare() {}
  // Captures the pipeline through the wrapped library and evaluates it.
  virtual void Evaluate(Tracer& tracer, int parent, std::int64_t request) = 0;
  // Compares the outputs of the last evaluation with the reference.
  virtual bool Check() = 0;
  // Runs the unannotated library eagerly on the same inputs and keeps its
  // outputs as the reference every evaluation is checked against.
  virtual void MakeReference() = 0;
  // The plain library on one thread (Fig. 4's base) and the hand-fused
  // baseline on `threads` threads; neither result is kept.
  virtual void RunBase() = 0;
  virtual void RunFused(int threads) = 0;
  // Flips one output element (the corruption self-test).
  virtual void Corrupt() = 0;
  // Bytes an evaluation must move at least (each array read or written
  // once), for memory.computed_gbps; 0 where no such figure is kept.
  virtual double ComputedBytes() const { return 0; }

 protected:
  std::unique_ptr<mz::Runtime> runtime_;
  EvalMark mark_;
};

// Number of worker threads every batch runtime uses (= logical CPUs).
int BenchThreads();

// Builds a batch workload: generates its inputs from `seed` and constructs
// its runtime. Returns null for an unknown name.
std::unique_ptr<BatchWorkload> MakeBatchWorkload(const std::string& name, std::uint64_t seed);

// Runs the serving workload end to end (set-up, timed window, traced window).
void RunServing(const Args& args, Tracer& tracer, RawResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
