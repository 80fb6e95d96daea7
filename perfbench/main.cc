// perfbench: measures one named workload of the Mozart runtime and writes
// the raw measurements as JSON. perfbench/run.py builds and runs this binary
// and turns its output into the benchmark's metrics; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <raw.json> [--trace-out <spans.json>] [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/cancel.h"
#include "common/cpu.h"
#include "matrix/matrix.h"
#include "vecmath/vecmath.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_ALIGN_FLAGS
#define PERFBENCH_ALIGN_FLAGS ""
#endif

namespace perfbench {
namespace {

// Set-ups per process; run.py reports the median over all its processes'.
constexpr int kSetups = 3;
// Plain-library and fused-baseline repetitions in a traced run.
constexpr int kBaselineReps = 3;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out <path> [--trace-out <path>] [--corrupt]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_path = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0 || args.out_path.empty()) {
    Usage("--workload, --seed, --seconds and --out are required");
  }
  if (args.trace && args.trace_path.empty()) {
    Usage("--trace 1 needs --trace-out");
  }
  return args;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Peak resident set of this process, in MiB (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Runs evaluations back to back for `seconds`. Each sample is one correct
// evaluation's wall time: capture, plan, execute, output check and Reset.
// Prepare (restoring inputs, poisoning outputs) runs between samples. In a
// traced run every other evaluation is traced and the rest are not, so the
// tracing overhead is measured over the same stretch of time.
void TimedLoop(BatchWorkload& w, Tracer& tracer, double seconds, bool corrupt, RawResult* r) {
  Tracer off(false);
  const std::int64_t start = mz::NowNanos();
  const std::int64_t cpu_start = CpuNanos();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::int64_t req = 0; mz::NowNanos() < deadline; ++req) {
    const bool traced = tracer.enabled() && req % 2 == 0;
    Tracer& t = traced || !tracer.enabled() ? tracer : off;
    w.Prepare();
    const mz::EvalStats::Snapshot before = w.runtime().stats().Take();
    const int root = t.enabled() ? t.NewId() : -1;
    const std::int64_t t0 = mz::NowNanos();
    const std::int64_t c0 = CpuNanos();
    const char* failure = nullptr;
    try {
      w.Evaluate(t, root, req);
      if (corrupt && req == 0) {
        w.Corrupt();
      }
      ScopedSpan span(t, "check", root, req);
      if (!w.Check()) {
        failure = "mismatch";
      }
    } catch (const mz::OverloadError&) {
      failure = "refused";
    } catch (const mz::CancelledError&) {
      failure = "deadline";
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: evaluation %lld threw: %s\n",
                   static_cast<long long>(req), e.what());
      failure = "exception";
    }
    {
      ScopedSpan span(t, "reset", root, req);
      w.runtime().Reset();
    }
    const std::int64_t t1 = mz::NowNanos();
    const std::int64_t c1 = CpuNanos();
    t.Span(root, "eval", t0, t1, -1, req);
    t.Counters(req, before, w.runtime().stats().Take());
    ++r->attempted;
    if (failure != nullptr) {
      ++r->failed;
      ++r->failures[failure];
    } else if (tracer.enabled() && !traced) {
      r->untraced_latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    } else {
      r->latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      r->cpu_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
    }
  }
  r->window_s = Seconds(mz::NowNanos() - start);
  r->window_cpu_s = Seconds(CpuNanos() - cpu_start);
}

void RunBatch(const Args& args, Tracer& tracer, RawResult* r) {
  Tracer off(false);
  std::unique_ptr<BatchWorkload> w;
  // Set-up: input generation, runtime construction, registry init and a
  // cold first evaluation. Repeated so setup_s is a median; only the last
  // instance is kept.
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const std::int64_t t0 = mz::NowNanos();
    const std::int64_t c0 = CpuNanos();
    w = MakeBatchWorkload(args.workload, args.seed);
    if (w == nullptr) {
      Usage(("unknown workload " + args.workload).c_str());
    }
    w->Prepare();
    w->Evaluate(off, -1, -1);
    w->runtime().Reset();
    r->setup_s.push_back(Seconds(mz::NowNanos() - t0));
    r->setup_cpu_s.push_back(Seconds(CpuNanos() - c0));
  }
  w->MakeReference();
  r->extra["computed_bytes"] = w->ComputedBytes();
  r->extra["exec_threads"] = BenchThreads();

  if (tracer.enabled()) {
    // Fig. 4's baselines on the same inputs.
    for (int i = 0; i < kBaselineReps; ++i) {
      ScopedSpan span(tracer, "library.base", -1, -1);
      w->RunBase();
    }
    for (int i = 0; i < kBaselineReps; ++i) {
      ScopedSpan span(tracer, "baselines.fused", -1, -1);
      w->RunFused(BenchThreads());
    }
    w->mark().Install(w->runtime());
  }
  TimedLoop(*w, tracer, args.seconds, args.corrupt, r);
}

std::string JsonList(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(9);
  out << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? ", " : "") << values[i];
  }
  out << "]";
  return out.str();
}

template <typename Map>
std::string JsonObject(const Map& map) {
  std::ostringstream out;
  out.precision(12);
  out << "{";
  bool first = true;
  for (const auto& [key, value] : map) {
    out << (first ? "" : ", ") << "\"" << key << "\": " << value;
    first = false;
  }
  out << "}";
  return out.str();
}

std::string Fingerprint() {
  std::ostringstream out;
  out << "{\"nproc\": " << mz::NumLogicalCpus() << ", \"l2_bytes\": " << mz::L2CacheBytes()
      << ", \"llc_bytes\": " << mz::LlcBytes() << ", \"threads\": " << BenchThreads()
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"align_flags\": \"" << PERFBENCH_ALIGN_FLAGS << "\"}";
  return out.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  // NumPy mode (Fig. 4a-d): the libraries' own threading is off, so the
  // plain-library base runs on one thread and Mozart's workers never nest
  // a second pool inside a task.
  vecmath::SetNumThreads(1);
  matrix::SetNumThreads(1);

  Tracer tracer(args.trace);
  RawResult r;
  try {
    if (args.workload == "serving") {
      RunServing(args, tracer, &r);
    } else {
      RunBatch(args, tracer, &r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const std::string fingerprint = Fingerprint();
  const std::string extra = JsonObject(r.extra);
  if (args.trace) {
    const std::string meta = "{\"workload\": \"" + args.workload +
                             "\", \"fingerprint\": " + fingerprint + ", \"extra\": " + extra + "}";
    if (!tracer.Dump(args.trace_path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
      return 1;
    }
  }
  std::FILE* out = std::fopen(args.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"fingerprint\": %s,\n"
               "\"attempted\": %lld, \"failed\": %lld, \"failures\": %s,\n"
               "\"setup_s\": %s, \"setup_cpu_s\": %s, \"window_s\": %.9f, \"window_cpu_s\": %.9f,\n"
               "\"peak_rss_mb\": %.3f, \"extra\": %s,\n"
               "\"untraced_latency_ms\": %s,\n\"latency_ms\": %s,\n\"cpu_ms\": %s}\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, fingerprint.c_str(), static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed), JsonObject(r.failures).c_str(),
               JsonList(r.setup_s).c_str(), JsonList(r.setup_cpu_s).c_str(), r.window_s,
               r.window_cpu_s, PeakRssMb(), extra.c_str(),
               JsonList(r.untraced_latency_ms).c_str(), JsonList(r.latency_ms).c_str(),
               JsonList(r.cpu_ms).c_str());
  return std::fclose(out) == 0 ? 0 : 1;
}
