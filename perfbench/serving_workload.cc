// The serving workload: an open loop of seeded Poisson arrivals at a fixed
// offered rate below saturation, sent to one ServingContext by several
// tenants over a mix of pipeline shapes.
//
// It is the only workload where capture, the plan cache, admission, the
// batch collector and Session lifetimes dominate and the executor does
// little. Two load-generator threads plus two pool threads stay within the
// four logical CPUs of the reference host. Each generator owns three tenants
// (a tenant's session is used by one thread at a time) and re-opens a
// tenant's session every kSessionRequests requests, as a connection would.
//
// Inline plans go through the batch collector with its adaptive window: a
// leader waits for a rider only while the smoothed gap between inline
// arrivals is below kBatchWindowUs, which the Poisson arrivals reach now and
// then, so a few percent of leaders wait and a few pairs coalesce.
//
// A request is timed from when it was due, so a stall also charges the
// requests queued behind it; the generator sleeps (it never spins) and its
// wake-up lateness is reported separately as loadgen.late_ms.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "api.h"
#include "bench.h"
#include "common/aligned.h"
#include "common/cancel.h"
#include "common/rng.h"
#include "core/session.h"

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kTenantsPerClient = 3;
constexpr int kTenants = kClients * kTenantsPerClient;
constexpr int kPoolThreads = 2;
// About 15% of the pool and of each generator: far enough below saturation
// that queueing stays rare and run-to-run spread stays small.
constexpr double kOfferedPerClient = 250.0;  // mean arrivals per second
constexpr double kLimitMs = 5.0;             // goodput counts requests within this
constexpr int kSessionRequests = 64;
// The batch collector's window ceiling. Inline arrivals average one per
// ~2.7 ms; a 1 ms ceiling makes a leader wait in a few percent of cases.
// A batch closes as soon as every generator has a plan in it.
constexpr std::int64_t kBatchWindowUs = 1000;
// Set-ups per process (setup_s is their median over the run's processes). A
// set-up is short here and the first few of a process run slower, so the
// median needs many.
constexpr int kSetups = 10;

// The mix: small inline chains (~0.35 ms), medium chains that take a pool
// token (~1.4 ms on the two pool threads), and a small chain ending in a
// reduction that a Future::get forces. Each is well above timer jitter.
enum ShapeKind { kSmall, kMedium, kReduce };
struct Shape {
  ShapeKind kind;
  long n;
  double weight;
};
constexpr Shape kShapes[] = {
    {kSmall, 16384, 0.60}, {kMedium, 65536, 0.25}, {kReduce, 16384, 0.15}};
constexpr int kNumShapes = 3;
constexpr long kMaxN = 65536;

template <bool kMozart>
auto RunShape(const Shape& shape, const double* a, const double* b, double* out) {
  using V = Vec<kMozart>;
  const long n = shape.n;
  if (shape.kind == kReduce) {
    V::Mul(n, a, b, out);
    V::Sqrt(n, out, out);
    return V::Sum(n, out);
  }
  V::Log1p(n, a, out);
  V::Add(n, out, b, out);
  V::Div(n, out, b, out);
  V::Sqrt(n, out, out);
  if (shape.kind == kSmall) {
    V::MulC(n, out, 0.5, out);
    V::AddC(n, out, 1.0, out);
  }
  return decltype(V::Sum(n, out)){};
}

struct Tenant {
  std::uint64_t id = 0;
  mz::AlignedBuffer<double> a, b, out;
  std::vector<double> ref_out[kNumShapes];
  double ref_sum = 0;
  std::unique_ptr<mz::Session> session;
  int session_requests = 0;
  EvalMark mark;
};

struct Request {
  std::int64_t due_offset_ns;
  int tenant;  // index within the client's tenants
  int shape;
};

struct ClientLog {
  std::vector<double> latency_ms, untraced_latency_ms, late_ms;
  std::int64_t attempted = 0;
  std::map<std::string, std::int64_t> failures;
};

class Server {
 public:
  explicit Server(std::uint64_t seed) {
    mz::ServingOptions opts;
    opts.pool_threads = kPoolThreads;
    opts.max_pool_sessions = 2;
    // The cutoff compares elements of a plan's widest stage: small/reduce
    // (16 Ki) run inline, medium (64 Ki) takes a pool token.
    opts.serial_cutoff_elems = 32768;
    // Inline plans go through the batch collector, adaptive window on (the
    // default).
    opts.batch_window_us = kBatchWindowUs;
    opts.batch_max_plans = kClients;
    ctx_ = std::make_unique<mz::ServingContext>(opts);
    for (int t = 0; t < kTenants; ++t) {
      Tenant& tenant = tenants_[t];
      tenant.id = static_cast<std::uint64_t>(t + 1);
      mz::Rng rng(seed * 1000003u + static_cast<std::uint64_t>(t));
      tenant.a = mz::AlignedBuffer<double>(kMaxN);
      tenant.b = mz::AlignedBuffer<double>(kMaxN);
      tenant.out = mz::AlignedBuffer<double>(kMaxN);
      for (long i = 0; i < kMaxN; ++i) {
        tenant.a[i] = rng.NextDouble(0.0, 10.0);
        tenant.b[i] = rng.NextDouble(0.5, 4.0);
      }
      OpenSession(tenant);
    }
    // A cold plan of every shape: the first tenant misses the shared plan
    // cache, the others hit it.
    Tracer off(false);
    for (Tenant& tenant : tenants_) {
      for (int s = 0; s < kNumShapes; ++s) {
        Serve(tenant, s, off, -1, -1, /*ref_known=*/false);
      }
    }
  }

  ~Server() {
    for (Tenant& tenant : tenants_) {
      tenant.session.reset();  // sessions must not outlive their context
    }
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The eager, unannotated result of every shape for every tenant.
  void MakeReference() {
    for (Tenant& tenant : tenants_) {
      for (int s = 0; s < kNumShapes; ++s) {
        const Shape& shape = kShapes[s];
        std::vector<double>& ref = tenant.ref_out[s];
        ref.resize(static_cast<std::size_t>(shape.n));
        const double sum = RunShape<false>(shape, tenant.a.data(), tenant.b.data(), ref.data());
        if (shape.kind == kReduce) {
          tenant.ref_sum = sum;
        }
      }
    }
  }

  // The request whose output is flipped before its check (the corruption
  // self-test).
  void CorruptRequest(std::int64_t request) { corrupt_request_ = request; }

  void InstallMarks() {
    tracing_ = true;
    for (Tenant& tenant : tenants_) {
      tenant.mark.Install(tenant.session->runtime());
    }
  }

  // Batch collector totals: jobs submitted, and jobs that rode a batch of
  // two or more.
  std::pair<std::int64_t, std::int64_t> BatchJobs() const {
    return {ctx_->batcher()->jobs(), ctx_->batcher()->coalesced_jobs()};
  }

  // Runs one open-loop window of `seconds` and appends to the logs.
  void Window(std::uint64_t seed, double seconds, Tracer& tracer, ClientLog* logs) {
    std::vector<Request> schedules[kClients];
    for (int c = 0; c < kClients; ++c) {
      mz::Rng rng(seed * 7919u + static_cast<std::uint64_t>(c) + 17);
      double t = 0;
      while (true) {
        t += -std::log(1.0 - rng.NextDouble()) / kOfferedPerClient;
        if (t >= seconds) {
          break;
        }
        const int tenant = static_cast<int>(rng.NextBounded(kTenantsPerClient));
        double pick = rng.NextDouble();
        int shape = 0;
        while (shape + 1 < kNumShapes && pick >= kShapes[shape].weight) {
          pick -= kShapes[shape].weight;
          ++shape;
        }
        schedules[c].push_back({static_cast<std::int64_t>(t * 1e9), tenant, shape});
      }
    }
    // Start a little ahead so both generators are asleep when it begins.
    const std::int64_t start = mz::NowNanos() + 2'000'000;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Generate(c, schedules[c], start, tracer, c * 10'000'000, &logs[c]);
      });
    }
    for (std::thread& th : clients) {
      th.join();
    }
  }

 private:
  void OpenSession(Tenant& tenant) {
    tenant.session.reset();
    mz::SessionOptions opts;
    opts.serving = ctx_.get();
    opts.admission_session = tenant.id;
    tenant.session = std::make_unique<mz::Session>(opts);
    tenant.session_requests = 0;
    if (tracing_) {
      tenant.mark.Install(tenant.session->runtime());
    }
  }

  void Generate(int client, const std::vector<Request>& schedule, std::int64_t start,
                Tracer& tracer, std::int64_t first_request, ClientLog* log) {
    // Wake on time: the default 50 us timer slack would add to every
    // request that finds the generator asleep.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Tracer off(false);
    std::int64_t req = first_request;
    for (const Request& r : schedule) {
      const std::int64_t due = start + r.due_offset_ns;
      if (mz::NowNanos() < due) {
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
        log->late_ms.push_back(static_cast<double>(mz::NowNanos() - due) * 1e-6);
      }
      Tenant& tenant = tenants_[client * kTenantsPerClient + r.tenant];
      // In a traced run every other request is traced (see TimedLoop).
      const bool traced = tracer.enabled() && req % 2 == 0;
      Tracer& t = traced || !tracer.enabled() ? tracer : off;
      const int root = t.enabled() ? t.NewId() : -1;
      const char* failure = Serve(tenant, r.shape, t, root, req, /*ref_known=*/true);
      const std::int64_t done = mz::NowNanos();
      t.Span(root, "request", due, done, -1, req);
      ++log->attempted;
      if (failure != nullptr) {
        ++log->failures[failure];
      } else {
        (tracer.enabled() && !traced ? log->untraced_latency_ms : log->latency_ms)
            .push_back(static_cast<double>(done - due) * 1e-6);
      }
      ++req;
    }
  }

  // One request: capture the shape, evaluate it (through Session::Evaluate,
  // or a Future::get for the reduction), check, Reset. Returns the failure
  // reason or null.
  const char* Serve(Tenant& tenant, int s, Tracer& tracer, int root, std::int64_t req,
                    bool ref_known) {
    if (tenant.session_requests >= kSessionRequests) {
      ScopedSpan span(tracer, "session.create", root, req);
      OpenSession(tenant);
    }
    ++tenant.session_requests;
    const Shape& shape = kShapes[s];
    mz::Session& session = *tenant.session;
    const mz::EvalStats::Snapshot before = session.stats().Take();
    double* out = tenant.out.data();
    out[0] = out[shape.n / 2] = out[shape.n - 1] = std::nan("");
    const char* failure = nullptr;
    try {
      mz::Session::Scope scope(session);
      mz::Future<double> sum;
      {
        ScopedSpan span(tracer, "capture", root, req);
        sum = RunShape<true>(shape, tenant.a.data(), tenant.b.data(), out);
      }
      bool ok = true;
      if (shape.kind == kReduce) {
        const double value = TimedGet(sum, tracer, tenant.mark, root, req);
        // The split sum adds in a different order than the eager one.
        ok = std::fabs(value - tenant.ref_sum) <= 1e-12 * std::fabs(tenant.ref_sum);
      } else {
        ScopedSpan span(tracer, "evaluate", root, req);
        session.Evaluate();
      }
      if (req == corrupt_request_) {
        out[0] += 1.0;
      }
      if (ref_known) {
        ScopedSpan span(tracer, "check", root, req);
        const std::size_t bytes = static_cast<std::size_t>(shape.n) * sizeof(double);
        if (!ok || std::memcmp(out, tenant.ref_out[s].data(), bytes) != 0) {
          failure = "mismatch";
        }
      }
    } catch (const mz::OverloadError&) {
      failure = "refused";
    } catch (const mz::CancelledError&) {
      failure = "deadline";
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request %lld threw: %s\n", static_cast<long long>(req),
                   e.what());
      failure = "exception";
    }
    {
      ScopedSpan span(tracer, "reset", root, req);
      session.Reset();
    }
    tracer.Counters(req, before, session.stats().Take());
    return failure;
  }

  std::unique_ptr<mz::ServingContext> ctx_;
  Tenant tenants_[kTenants];
  bool tracing_ = false;
  std::int64_t corrupt_request_ = -1;
};

void Collect(const ClientLog* logs, RawResult* r) {
  for (int c = 0; c < kClients; ++c) {
    const ClientLog& log = logs[c];
    r->latency_ms.insert(r->latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    r->untraced_latency_ms.insert(r->untraced_latency_ms.end(), log.untraced_latency_ms.begin(),
                                  log.untraced_latency_ms.end());
    r->attempted += log.attempted;
    for (const auto& [reason, count] : log.failures) {
      r->failed += count;
      r->failures[reason] += count;
    }
  }
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())))];
}

}  // namespace

void RunServing(const Args& args, Tracer& tracer, RawResult* r) {
  // Set-up: the serving context, every tenant's inputs and session, and a
  // cold plan of every shape. Repeated so setup_s is a median.
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const std::int64_t t0 = mz::NowNanos();
    const std::int64_t c0 = CpuNanos();
    server = std::make_unique<Server>(args.seed);
    r->setup_s.push_back(static_cast<double>(mz::NowNanos() - t0) * 1e-9);
    r->setup_cpu_s.push_back(static_cast<double>(CpuNanos() - c0) * 1e-9);
  }
  server->MakeReference();

  if (tracer.enabled()) {
    server->InstallMarks();
  }
  if (args.corrupt) {
    server->CorruptRequest(2);
  }
  ClientLog logs[kClients];
  const auto [jobs0, coalesced0] = server->BatchJobs();
  const std::int64_t cpu0 = CpuNanos();
  server->Window(args.seed, args.seconds, tracer, logs);
  r->window_cpu_s = static_cast<double>(CpuNanos() - cpu0) * 1e-9;
  const auto [jobs1, coalesced1] = server->BatchJobs();
  Collect(logs, r);
  r->window_s = args.seconds;

  std::vector<double> late;
  for (const ClientLog& log : logs) {
    late.insert(late.end(), log.late_ms.begin(), log.late_ms.end());
  }
  r->extra["limit_ms"] = kLimitMs;
  r->extra["batch_jobs"] = static_cast<double>(jobs1 - jobs0);
  r->extra["batch_coalesced_jobs"] = static_cast<double>(coalesced1 - coalesced0);
  r->extra["offered_per_s"] = static_cast<double>(r->attempted) / args.seconds;
  r->extra["late_p50_ms"] = Percentile(late, 0.50);
  r->extra["late_p99_ms"] = Percentile(late, 0.99);
  r->extra["exec_threads"] = kPoolThreads;
  r->extra["clients"] = kClients;
  r->extra["tenants"] = kTenants;
}

}  // namespace perfbench
