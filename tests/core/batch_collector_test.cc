// BatchCollector: cross-session micro-batching of small plans. Unit tests
// drive the collector directly (coalescing, max-batch close, flush,
// exception routing); the end-to-end tests check that N sessions' small
// plans produce bit-identical results batched vs. unbatched, and that a
// session teardown flushes an open batch window once no session left can
// still ride in it, and only then. A leader waits only as
// long as the arrival predictor expects a rider, so tests that need an open
// window prime it with real arrivals a known gap apart (PrimeWindow). The
// assertions are on batch membership, not wall-clock durations, per the
// single-core-CI note in ROADMAP: a closed window is shown by a later
// arrival that can no longer join it.
#include "core/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/client.h"
#include "core/session.h"
#include "core/stats.h"
#include "vecmath/annotated.h"
#include "vecmath/vecmath.h"

namespace mz {
namespace {

constexpr std::int64_t kForeverUs = 60 * 1000 * 1000;  // never the binding bound

// Primes the arrival predictor so that the next leader, arriving right
// after, waits about 1.5 x 200 ms: two solo arrivals 200 ms apart set the
// smoothed gap to 200 ms, and the second carries an already-due deadline so
// its own window clamps to zero. A rider then has ~300 ms to join.
void PrimeWindow(BatchCollector& collector) {
  collector.Run([] {});
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  collector.Run([] {}, nullptr, /*deadline_ns=*/NowNanos());
}

// Blocks until `jobs` jobs have entered the collector. Run counts a job
// and opens (or joins) its batch under one lock, so a leader counted here
// already holds the open batch.
void WaitForJobs(const BatchCollector& collector, std::int64_t jobs) {
  while (collector.jobs() < jobs) {
    std::this_thread::yield();
  }
}

TEST(BatchCollectorTest, SingleJobRunsOnTheCallersThread) {
  ThreadPool pool(4);
  BatchCollector collector(&pool, BatchOptions{.window_us = 100, .max_batch = 8});
  std::thread::id ran_on;
  collector.Run([&] { ran_on = std::this_thread::get_id(); });
  // A batch of one skips the pool: it is exactly the plain inline path.
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(collector.jobs(), 1);
  EXPECT_EQ(collector.dispatches(), 1);
  EXPECT_EQ(collector.coalesced_jobs(), 0);
  EXPECT_EQ(collector.max_batch_seen(), 1);
}

TEST(BatchCollectorTest, FullBatchClosesBeforeTheWindow) {
  ThreadPool pool(4);
  BatchCollector collector(&pool, BatchOptions{.window_us = kForeverUs, .max_batch = 2});
  PrimeWindow(collector);
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] { collector.Run([&] { ran.fetch_add(1); }); });
  WaitForJobs(collector, 3);  // the leader's window is open
  // Two more arrivals inside the leader's window: the first fills the batch
  // and closes it, so the second cannot join and leads a batch of its own.
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] { collector.Run([&] { ran.fetch_add(1); }); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(collector.jobs(), 5);
  EXPECT_EQ(collector.max_batch_seen(), 2) << "a batch grew past max_batch";
  EXPECT_EQ(collector.coalesced_jobs(), 2);
}

TEST(BatchCollectorTest, FlushClosesAnOpenWindow) {
  ThreadPool pool(2);
  BatchCollector collector(&pool, BatchOptions{.window_us = kForeverUs, .max_batch = 8});
  PrimeWindow(collector);
  std::atomic<bool> ran{false};
  std::thread leader([&] { collector.Run([&] { ran.store(true); }); });
  WaitForJobs(collector, 3);
  collector.Flush();
  // Arriving well inside the leader's window, this job would ride with it
  // had the flush not closed the batch.
  collector.Run([] {});
  leader.join();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(collector.dispatches(), 4);
  EXPECT_EQ(collector.coalesced_jobs(), 0) << "a job joined a flushed window";
}

TEST(BatchCollectorTest, ManyConcurrentSubmittersAllComplete) {
  ThreadPool pool(4);
  BatchCollector collector(&pool, BatchOptions{.window_us = 2000, .max_batch = 4});
  constexpr int kJobs = 32;
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kJobs; ++i) {
    threads.emplace_back([&] { collector.Run([&] { ran.fetch_add(1); }); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(collector.jobs(), kJobs);
  EXPECT_GE(collector.dispatches(), (kJobs + 3) / 4);  // max_batch bounds a batch at 4
  EXPECT_LE(collector.max_batch_seen(), 4);
}

TEST(BatchCollectorTest, ExceptionReachesItsSubmitterOnly) {
  ThreadPool pool(4);
  BatchCollector collector(&pool, BatchOptions{.window_us = kForeverUs, .max_batch = 2});
  PrimeWindow(collector);
  std::atomic<bool> ok_ran{false};
  std::atomic<bool> ok_threw{false};
  std::atomic<bool> bad_threw{false};
  std::thread good([&] {
    try {
      collector.Run([&] { ok_ran.store(true); });
    } catch (...) {
      ok_threw.store(true);
    }
  });
  WaitForJobs(collector, 3);  // `bad` rides in `good`'s open window
  std::thread bad([&] {
    try {
      collector.Run([] { throw std::runtime_error("boom"); });
    } catch (const std::runtime_error&) {
      bad_threw.store(true);
    }
  });
  good.join();
  bad.join();
  EXPECT_EQ(collector.coalesced_jobs(), 2);
  EXPECT_TRUE(ok_ran.load());
  EXPECT_FALSE(ok_threw.load()) << "a batchmate's exception leaked across jobs";
  EXPECT_TRUE(bad_threw.load());
}

// ---- arrival-rate prediction ----

TEST(BatchCollectorTest, AdaptiveLoneLeaderSkipsTheForeverWindow) {
  ThreadPool pool(2);
  BatchCollector collector(&pool, BatchOptions{.window_us = kForeverUs, .max_batch = 8});
  bool ran = false;
  // No gap history: no rider is predicted, so the leader must not sleep out
  // the 60 s window. Returning at all is the assertion.
  collector.Run([&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(collector.jobs(), 1);
  EXPECT_EQ(collector.dispatches(), 1);
  EXPECT_EQ(collector.adapted_window_us_total(), 0);
  EXPECT_EQ(collector.ewma_gap_us(), -1.0);  // one arrival: still no gap
}

TEST(BatchCollectorTest, AdaptiveWindowIsBoundedByArrivalPrediction) {
  ThreadPool pool(2);
  BatchCollector collector(&pool, BatchOptions{.window_us = 1000, .max_batch = 8});
  EvalStats stats;
  constexpr int kJobs = 16;
  int ran = 0;
  for (int i = 0; i < kJobs; ++i) {
    collector.Run([&] { ++ran; }, &stats);
  }
  EXPECT_EQ(ran, kJobs);
  EXPECT_GE(collector.ewma_gap_us(), 0.0);  // gap history accumulated
  // Every leader's effective window is capped by the configured one, and the
  // first leader (no history) pays zero — strictly less than kJobs full
  // windows no matter how the arrival gaps smoothed out.
  EXPECT_LT(collector.adapted_window_us_total(), kJobs * 1000);
  // The per-leader choice is also exported through EvalStats.
  EXPECT_EQ(stats.batch_window_adapted_us.load(), collector.adapted_window_us_total());
}

// ---- end-to-end through sessions ----

std::vector<double> Expected(long n, const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> want(static_cast<std::size_t>(n));
  vecmath::Log1p(n, a.data(), want.data());
  vecmath::Add(n, want.data(), b.data(), want.data());
  vecmath::Div(n, want.data(), b.data(), want.data());
  return want;
}

// Runs kClients concurrent sessions x kEvals small evaluations against `ctx`
// and returns every client's final output buffer.
std::vector<std::vector<double>> RunSmallPlanClients(ServingContext& ctx, int clients, int evals,
                                                     long n) {
  std::vector<std::vector<double>> outs(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> a(static_cast<std::size_t>(n), 1.5 + c);
      std::vector<double> b(static_cast<std::size_t>(n), 2.5 + c);
      std::vector<double>& out = outs[static_cast<std::size_t>(c)];
      out.resize(static_cast<std::size_t>(n));
      SessionOptions opts;
      opts.serving = &ctx;
      Session session(opts);
      Session::Scope scope(session);
      for (int e = 0; e < evals; ++e) {
        mzvec::Log1p(n, a.data(), out.data());
        mzvec::Add(n, out.data(), b.data(), out.data());
        mzvec::Div(n, out.data(), b.data(), out.data());
        session.Evaluate();
        session.Reset();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return outs;
}

TEST(BatchCollectorSessionTest, BatchedResultsMatchUnbatched) {
  mzvec::EnsureRegistered();
  constexpr int kClients = 8;
  constexpr int kEvals = 12;
  const long n = 512;  // well under the cutoff: always inline-class

  ServingContext unbatched(ServingOptions{
      .pool_threads = 4, .max_pool_sessions = 2, .serial_cutoff_elems = 4096});
  ServingContext batched(ServingOptions{
      .pool_threads = 4, .max_pool_sessions = 2, .serial_cutoff_elems = 4096,
      .batch_window_us = 300, .batch_max_plans = 4});
  ASSERT_NE(batched.batcher(), nullptr);
  ASSERT_EQ(unbatched.batcher(), nullptr);

  auto got_unbatched = RunSmallPlanClients(unbatched, kClients, kEvals, n);
  auto got_batched = RunSmallPlanClients(batched, kClients, kEvals, n);

  for (int c = 0; c < kClients; ++c) {
    std::vector<double> a(static_cast<std::size_t>(n), 1.5 + c);
    std::vector<double> b(static_cast<std::size_t>(n), 2.5 + c);
    std::vector<double> want = Expected(n, a, b);
    EXPECT_EQ(got_unbatched[static_cast<std::size_t>(c)], want) << "client " << c;
    EXPECT_EQ(got_batched[static_cast<std::size_t>(c)], want) << "client " << c;
  }

  EvalStats::Snapshot plain = unbatched.AggregateStats();
  EvalStats::Snapshot coal = batched.AggregateStats();
  EXPECT_EQ(plain.batched_evals, 0);
  EXPECT_EQ(coal.batched_evals, kClients * kEvals) << "a small plan bypassed the collector";
  // Batched evals stay in the inline class: serial + pooled == evaluations.
  EXPECT_EQ(coal.serial_evals, kClients * kEvals);
  EXPECT_EQ(coal.pooled_evals, 0);
  EXPECT_EQ(batched.batcher()->jobs(), kClients * kEvals);
  EXPECT_LE(batched.batcher()->dispatches(), batched.batcher()->jobs());
}

TEST(BatchCollectorSessionTest, SessionTeardownFlushesTheOpenWindow) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{
      .pool_threads = 2, .max_pool_sessions = 2, .serial_cutoff_elems = 4096,
      .batch_window_us = kForeverUs, .batch_max_plans = 8});
  BatchCollector& collector = *ctx.batcher();

  const long n = 256;
  auto evaluate_sqrt = [&] {
    std::vector<double> a(static_cast<std::size_t>(n), 4.0);
    std::vector<double> out(static_cast<std::size_t>(n));
    SessionOptions opts;
    opts.serving = &ctx;
    Session session(opts);
    Session::Scope scope(session);
    mzvec::Sqrt(n, a.data(), out.data());
    session.Evaluate();
    EXPECT_EQ(out, std::vector<double>(static_cast<std::size_t>(n), 2.0));
  };
  PrimeWindow(collector);
  std::thread leader(evaluate_sqrt);  // leads a batch and waits for riders
  WaitForJobs(collector, 3);
  {
    SessionOptions opts;
    opts.serving = &ctx;
    Session departing(opts);  // its teardown flushes the open window
  }
  // Arriving well inside the leader's window, this evaluation would ride
  // with it had the teardown not closed the batch.
  evaluate_sqrt();
  leader.join();
  EXPECT_EQ(collector.jobs(), 4);
  EXPECT_EQ(collector.coalesced_jobs(), 0) << "an evaluation joined a flushed window";
}

TEST(BatchCollectorSessionTest, SessionTeardownLeavesTheWindowOpenForAnIdleSession) {
  mzvec::EnsureRegistered();
  ServingContext ctx(ServingOptions{
      .pool_threads = 2, .max_pool_sessions = 2, .serial_cutoff_elems = 4096,
      .batch_window_us = kForeverUs, .batch_max_plans = 8});
  BatchCollector& collector = *ctx.batcher();

  const long n = 256;
  auto evaluate_sqrt = [&](Session& session) {
    std::vector<double> a(static_cast<std::size_t>(n), 4.0);
    std::vector<double> out(static_cast<std::size_t>(n));
    Session::Scope scope(session);
    mzvec::Sqrt(n, a.data(), out.data());
    session.Evaluate();
    EXPECT_EQ(out, std::vector<double>(static_cast<std::size_t>(n), 2.0));
  };
  SessionOptions opts;
  opts.serving = &ctx;
  Session idle(opts);  // registered, with no job in the window yet
  PrimeWindow(collector);
  std::thread leader([&] {
    Session session(opts);
    evaluate_sqrt(session);  // leads a batch and waits for riders
  });
  WaitForJobs(collector, 3);
  {
    Session departing(opts);  // the idle session can still ride: no flush
  }
  evaluate_sqrt(idle);  // rides the leader's still-open window
  leader.join();
  EXPECT_EQ(collector.jobs(), 4);
  EXPECT_EQ(collector.coalesced_jobs(), 2) << "the idle session's evaluation did not ride";
}

}  // namespace
}  // namespace mz
