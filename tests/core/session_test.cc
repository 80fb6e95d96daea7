// Sessions and the serving layer: per-client graph isolation, N concurrent
// clients over one shared pool/plan-cache/admission gate, aggregate stats,
// and admission routing (inline vs pooled).
#include "core/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

std::vector<double> Iota(long n, double start) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return v;
}

std::vector<double> Expected(long n, const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Log1p(n, a.data(), want.data());
  vecmath::Add(n, want.data(), b.data(), want.data());
  vecmath::Div(n, want.data(), b.data(), want.data());
  return want;
}

void Capture(long n, const double* a, const double* b, double* out) {
  mzvec::Log1p(n, a, out);
  mzvec::Add(n, out, b, out);
  mzvec::Div(n, out, b, out);
}

TEST(SessionTest, EnsureRegisteredIsStableAcrossCalls) {
  std::uint64_t v1 = mzvec::EnsureRegistered();
  std::uint64_t v2 = mzvec::EnsureRegistered();
  EXPECT_EQ(v1, v2) << "repeated registration bumped the registry version";
  EXPECT_EQ(v2, Registry::Global().version());
}

TEST(SessionTest, SessionsIsolateGraphState) {
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions opts;
  opts.serving = &ctx;
  Session s1(opts);
  Session s2(opts);

  const long n = 1000;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> out1(static_cast<std::size_t>(n));
  std::vector<double> out2(static_cast<std::size_t>(n));

  {
    Session::Scope scope(s1);
    Capture(n, a.data(), b.data(), out1.data());
  }
  EXPECT_EQ(s1.runtime().num_pending_nodes(), 3);
  EXPECT_EQ(s2.runtime().num_pending_nodes(), 0) << "capture leaked across sessions";

  {
    Session::Scope scope(s2);
    Capture(n, a.data(), b.data(), out2.data());
  }
  s1.Evaluate();
  EXPECT_EQ(s1.runtime().num_pending_nodes(), 0);
  EXPECT_EQ(s2.runtime().num_pending_nodes(), 3) << "evaluation leaked across sessions";
  s2.Evaluate();

  std::vector<double> want = Expected(n, a, b);
  EXPECT_EQ(out1, want);
  EXPECT_EQ(out2, want);
  EXPECT_EQ(ctx.num_live_sessions(), 2);
}

TEST(SessionTest, EightConcurrentClientsComputeCorrectly) {
  constexpr int kClients = 8;
  constexpr int kEvalsPerClient = 5;
  const long n = 20000;  // above the serial cutoff: exercises the shared pool

  ServingContext ctx(ServingOptions{
      .pool_threads = 4, .max_pool_sessions = 2, .serial_cutoff_elems = 4096});

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> a = Iota(n, 1.0 + c);
      std::vector<double> b = Iota(n, 2.0 + c);
      std::vector<double> got(static_cast<std::size_t>(n));
      std::vector<double> want = Expected(n, a, b);

      SessionOptions opts;
      opts.serving = &ctx;
      Session session(opts);
      Session::Scope scope(session);
      for (int e = 0; e < kEvalsPerClient; ++e) {
        std::fill(got.begin(), got.end(), 0.0);
        Capture(n, a.data(), b.data(), got.data());
        session.Evaluate();
        if (got != want) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  EvalStats::Snapshot total = ctx.AggregateStats();
  EXPECT_EQ(total.evaluations, kClients * kEvalsPerClient);
  EXPECT_EQ(total.nodes_executed, kClients * kEvalsPerClient * 3);
  // All clients run the same structure at the same size: at most a handful
  // of races on the cold key, then hits. Every eval either hit or missed.
  EXPECT_EQ(total.plan_cache_hits + total.plan_cache_misses, kClients * kEvalsPerClient);
  EXPECT_GE(total.plan_cache_hits, kClients * kEvalsPerClient - kClients);
  EXPECT_LE(total.plans_built, kClients);
  // Above the cutoff, every evaluation took an admission token.
  EXPECT_EQ(total.pooled_evals, kClients * kEvalsPerClient);
  EXPECT_EQ(total.serial_evals, 0);
}

TEST(SessionTest, SmallPlansRunInlineOnTheCaller) {
  const long n = 64;  // far below the cutoff
  ServingContext ctx(ServingOptions{
      .pool_threads = 4, .max_pool_sessions = 2, .serial_cutoff_elems = 4096});
  SessionOptions opts;
  opts.serving = &ctx;
  Session session(opts);
  Session::Scope scope(session);

  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n));
  Capture(n, a.data(), b.data(), got.data());
  session.Evaluate();

  EXPECT_EQ(got, Expected(n, a, b));
  EvalStats::Snapshot s = session.stats().Take();
  EXPECT_EQ(s.serial_evals, 1);
  EXPECT_EQ(s.pooled_evals, 0);
}

TEST(SessionTest, AdmissionKnobsOnRuntimeOptionsAreRejected) {
  // The admission identity and quotas live on SessionOptions itself. Set on
  // SessionOptions::runtime they used to be overwritten silently (a runtime
  // quota of 5 evals/s installed no quota at all); now they throw, naming
  // the field to use instead.
  ServingContext ctx(ServingOptions{.pool_threads = 1});
  const std::vector<std::pair<const char*, void (*)(RuntimeOptions&)>> knobs = {
      {"admission_session", [](RuntimeOptions& r) { r.admission_session = 7; }},
      {"admission_weight", [](RuntimeOptions& r) { r.admission_weight = 3; }},
      {"quota_evals_per_sec", [](RuntimeOptions& r) { r.quota_evals_per_sec = 5.0; }},
      {"quota_bytes_per_sec", [](RuntimeOptions& r) { r.quota_bytes_per_sec = 1e6; }},
  };
  for (const auto& [field, set] : knobs) {
    SessionOptions opts;
    opts.serving = &ctx;
    set(opts.runtime);
    try {
      Session session(opts);
      ADD_FAILURE() << "runtime." << field << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("SessionOptions::") + field + " instead"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(ctx.num_live_sessions(), 0);

  // The SessionOptions fields themselves are honoured.
  SessionOptions opts;
  opts.serving = &ctx;
  opts.admission_session = 7;
  opts.admission_weight = 3;
  opts.quota_evals_per_sec = 5.0;
  Session session(opts);
  EXPECT_EQ(session.runtime().options().quota_evals_per_sec, 5.0);
  EXPECT_EQ(session.runtime().options().admission_session, 7u);
}

TEST(SessionTest, AggregateStatsIncludeRetiredSessions) {
  ServingContext ctx(ServingOptions{.pool_threads = 2, .serial_cutoff_elems = 0});
  const long n = 5000;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n));
  {
    SessionOptions opts;
    opts.serving = &ctx;
    Session session(opts);
    Session::Scope scope(session);
    Capture(n, a.data(), b.data(), got.data());
    session.Evaluate();
  }  // session retires here
  EXPECT_EQ(ctx.num_live_sessions(), 0);
  EvalStats::Snapshot total = ctx.AggregateStats();
  EXPECT_EQ(total.evaluations, 1);
  EXPECT_EQ(total.nodes_executed, 3);
}

TEST(SessionTest, AdmissionGateBoundsConcurrency) {
  AdmissionGate gate(2);
  EXPECT_EQ(gate.tokens(), 2);
  AdmissionGate::Ticket t1 = gate.Acquire();
  AdmissionGate::Ticket t2 = gate.Acquire();
  EXPECT_EQ(gate.in_use(), 2);

  std::atomic<bool> third_acquired{false};
  std::thread waiter([&] {
    AdmissionGate::Ticket t3 = gate.Acquire();
    third_acquired.store(true, std::memory_order_release);
  });
  // The third acquire must block while both tokens are held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_acquired.load(std::memory_order_acquire));

  t1.Release();
  waiter.join();
  EXPECT_TRUE(third_acquired.load(std::memory_order_acquire));
  EXPECT_EQ(gate.in_use(), 1);  // t2 still held; t3 released at thread exit
}

TEST(SessionTest, AdoptProcessDefaultWiresTheDefaultRuntime) {
  mzvec::EnsureRegistered();
  // Deliberately leaked: whatever the process-default Runtime borrows (pool,
  // cache, gate) must live for the rest of the process.
  static ServingContext* ctx = new ServingContext(
      ServingOptions{.pool_threads = 2, .max_pool_sessions = 2, .serial_cutoff_elems = 256});
  ASSERT_TRUE(ctx->AdoptProcessDefault())
      << "default runtime was built before this test could wire it";

  // Wrapped calls on a thread with no Session/RuntimeScope capture into
  // Runtime::Default() — which now plans through ctx's cache for free.
  const long n = 9000;
  std::vector<double> a = Iota(n, 1.0);
  std::vector<double> b = Iota(n, 2.0);
  std::vector<double> got(static_cast<std::size_t>(n));
  Capture(n, a.data(), b.data(), got.data());
  Runtime::Default().Evaluate();
  EXPECT_EQ(got, Expected(n, a, b));

  std::fill(got.begin(), got.end(), 0.0);
  Capture(n, a.data(), b.data(), got.data());
  Runtime::Default().Evaluate();
  EXPECT_EQ(got, Expected(n, a, b));

  EvalStats::Snapshot s = Runtime::Default().stats().Take();
  EXPECT_EQ(s.plans_built, 1) << "warm default-runtime evaluation re-planned";
  EXPECT_EQ(s.plan_cache_hits, 1);
  EXPECT_EQ(s.plan_cache_misses, 1);
  EXPECT_EQ(s.pooled_evals, 2);  // above the cutoff: admission applied too
  EXPECT_GE(ctx->plan_cache().hits(), 1);

  // Once the default runtime exists its wiring is frozen.
  EXPECT_FALSE(ctx->AdoptProcessDefault());
  EXPECT_FALSE(Runtime::SetDefaultOptions(RuntimeOptions{}));
}

TEST(SessionTest, FuturesResolveThroughSessions) {
  ServingContext ctx(ServingOptions{.pool_threads = 2});
  SessionOptions opts;
  opts.serving = &ctx;
  Session session(opts);
  Session::Scope scope(session);

  const long n = 10000;
  std::vector<double> a(static_cast<std::size_t>(n), 0.5);
  Future<double> total = mzvec::Sum(n, a.data());
  EXPECT_DOUBLE_EQ(total.get(), 0.5 * static_cast<double>(n));
}

}  // namespace
}  // namespace mz
