// In-memory span and counter recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// runtime's public API (wrapped library calls, Runtime::Evaluate, Future::get,
// Session construction/Evaluate/Reset). Each span has an id, a name, start and
// end times, the id of its parent span (-1 for a root) and the request
// (evaluation) it belongs to. Beside the spans, the recorder keeps
// per-evaluation deltas of EvalStats counters. Nothing is written until
// Dump(), which main() calls once at exit; perfbench/layers.py derives
// every per-layer metric from that file.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/stats.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // A fresh span id; callers hand it to children before the span closes.
  int NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Records a finished span. `name` must be a string literal: only the
  // pointer is stored. No-op when tracing is off.
  void Span(int id, const char* name, std::int64_t start_ns, std::int64_t end_ns, int parent,
            std::int64_t request);

  // Records the counter movement of one evaluation (after - before).
  void Counters(std::int64_t request, const mz::EvalStats::Snapshot& before,
                const mz::EvalStats::Snapshot& after);

  // Writes {"meta": <meta_json>, "spans": [...], "counters": [...]} to path.
  // Returns false when the file cannot be written.
  bool Dump(const std::string& path, const std::string& meta_json) const;

 private:
  struct SpanRec {
    int id;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t request;
  };

  const bool enabled_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;  // guards spans_ and counters_: serving records from several threads
  std::vector<SpanRec> spans_;
  std::vector<std::pair<std::int64_t, mz::EvalStats::Snapshot>> counters_;
};

// Times the enclosing scope and records it as a span when tracing is on:
//   ScopedSpan eval(tracer, "evaluate", parent.id(), req);
//   rt.Evaluate();
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, std::int64_t request)
      : tracer_(tracer), name_(name), parent_(parent), request_(request),
        id_(tracer.enabled() ? tracer.NewId() : -1),
        start_ns_(tracer.enabled() ? mz::NowNanos() : 0) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      tracer_.Span(id_, name_, start_ns_, mz::NowNanos(), parent_, request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  int parent_;
  std::int64_t request_;
  int id_;
  std::int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
