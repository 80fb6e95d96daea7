#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {

using Snapshot = mz::EvalStats::Snapshot;

// The EvalStats counters the per-layer metrics read. Max-aggregated
// counters are recorded as their value after the evaluation, not a delta.
struct CounterField {
  const char* name;
  std::int64_t Snapshot::*field;
  bool is_max;
};

constexpr CounterField kFields[] = {
    {"planner_ns", &Snapshot::planner_ns, false},
    {"split_ns", &Snapshot::split_ns, false},
    {"task_ns", &Snapshot::task_ns, false},
    {"merge_ns", &Snapshot::merge_ns, false},
    {"evaluations", &Snapshot::evaluations, false},
    {"stages", &Snapshot::stages, false},
    {"nodes_executed", &Snapshot::nodes_executed, false},
    {"plan_cache_hits", &Snapshot::plan_cache_hits, false},
    {"plan_cache_misses", &Snapshot::plan_cache_misses, false},
    {"pooled_evals", &Snapshot::pooled_evals, false},
    {"batched_evals", &Snapshot::batched_evals, false},
    {"admission_wait_ns", &Snapshot::admission_wait_ns, false},
    {"batch_window_adapted_us", &Snapshot::batch_window_adapted_us, false},
    {"boundaries_elided", &Snapshot::boundaries_elided, false},
    {"bytes_merge_avoided", &Snapshot::bytes_merge_avoided, false},
    {"footprint_bytes_max", &Snapshot::footprint_bytes_max, true},
};

}  // namespace

void Tracer::Span(int id, const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  int parent, std::int64_t request) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, name, start_ns, end_ns, parent, request});
}

void Tracer::Counters(std::int64_t request, const Snapshot& before, const Snapshot& after) {
  if (!enabled_) {
    return;
  }
  Snapshot delta;
  for (const CounterField& f : kFields) {
    delta.*f.field = f.is_max ? after.*f.field : after.*f.field - before.*f.field;
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back(request, delta);
}

bool Tracer::Dump(const std::string& path, const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"meta\": %s,\n\"span_fields\": [\"id\", \"name\", \"start_ns\", \"end_ns\", "
                  "\"parent\", \"request\"],\n\"spans\": [",
               meta_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::fprintf(f, "%s\n[%d, \"%s\", %lld, %lld, %d, %lld]", i == 0 ? "" : ",", s.id, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "],\n\"counters\": [");
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    std::fprintf(f, "%s\n{\"request\": %lld", i == 0 ? "" : ",",
                 static_cast<long long>(counters_[i].first));
    for (const CounterField& field : kFields) {
      std::fprintf(f, ", \"%s\": %lld", field.name,
                   static_cast<long long>(counters_[i].second.*field.field));
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
