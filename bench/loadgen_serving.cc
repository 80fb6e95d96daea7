// Closed-loop serving load generator: adversarial multi-tenant traffic over
// one ServingContext. Experiments 4–6 are ablation pairs, so a policy and
// its baseline land in the same BENCH json; 1–3 measure the single
// admission, batch-window and cache-accounting policy the runtime ships:
//
//  1. Fairness under a chatty neighbor — 4 chatty tenants x 3 connections
//     each vs. 12 sparse single-connection tenants, every connection a
//     closed loop of pooled-class plans with a zipf-skewed size mix, all
//     contending for ONE admission token for a fixed wall duration.
//     Sessions churn (a fresh Session every few requests), so hundreds of
//     sessions pass through the context per run. Reported: Jain's fairness
//     index over per-TENANT completions, plus per-class p50/p95/p99 of
//     request latency and of per-request admission wait. DRR should hold
//     Jain near 1.0 (each tenant is one rotation slot, however many
//     connections it opens), where one arrival-order queue would serve per
//     *connection* and drop Jain toward 0.75.
//
//  2. Lone client vs. the batch window — an OPEN arrival process (the
//     client paces submissions with exponential think time, independent of
//     completions) against a 400 us coalescing window. Every evaluation is
//     a rider-less leader; the arrival-rate-adaptive window predicts no
//     rider and skips the wait (a fixed window slept the full 400 us: p50
//     509–519 us against 23–27 us, BENCH_PR10). Reported: per-eval latency
//     percentiles and the total window the leaders actually chose.
//
//  3. Plan-cache byte budget — a stream of distinct plan templates against
//     one 64 KiB budget. The cache charges what the entries really allocate
//     (capacity slack, allocator rounding). Reported:
//     resident entries, charged bytes and evictions.
//
//  4. Deadline-bearing clients, shedding on vs. off (ISSUE 9) — 12 closed-
//     loop clients with a per-request deadline hammer ONE admission token
//     with pooled-class plans, offered load ~12x capacity. With shedding ON
//     every request carries a CancelToken: the gate rejects up front
//     (OverloadError + retry_after_us, which the client sleeps on) when the
//     hold-time EWMA predicts the deadline cannot be met, and queued or
//     running requests that outlive the deadline abort. OFF is the ablation:
//     no token, every request queues and runs to completion ~12 service
//     times later. Reported: goodput (deadline-MET completions per second),
//     shed/abort rates, and latency percentiles of the served requests —
//     shedding should hold served p99 near the deadline while the ablation's
//     p99 grows with the whole queue.
//
// Methodology note (also in ARCHITECTURE.md): experiment 1 is CLOSED-loop —
// every connection always has a request in flight, so completions measure
// each tenant's *share* of a saturated resource, which is what a fairness
// index needs. Experiment 2 is OPEN-loop — arrivals are paced externally,
// so latency includes the queueing a real lone client would see, which is
// what a batch-window latency needs. Wall-clock columns are noisy on
// single-core CI (ROADMAP); read shares, routing counts, and ratios.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/client.h"
#include "core/resilience.h"
#include "core/session.h"
#include "vecmath/annotated.h"

namespace {

void Pipeline(long n, const double* a, const double* b, double* out) {
  mzvec::Log1p(n, a, out);
  mzvec::Add(n, out, b, out);
  mzvec::Div(n, out, b, out);
}

double Pct(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = std::min(v.size() - 1, static_cast<std::size_t>(p / 100.0 *
                                                                   static_cast<double>(v.size())));
  return v[idx];
}

double Jain(const std::vector<double>& x) {
  double sum = 0.0, sumsq = 0.0;
  for (double v : x) {
    sum += v;
    sumsq += v * v;
  }
  if (sumsq <= 0.0) {
    return 0.0;
  }
  return sum * sum / (static_cast<double>(x.size()) * sumsq);
}

// ------------------------------------------- 1. fairness under a neighbor ----

struct ClassSamples {
  std::vector<double> lat_ms;   // end-to-end per-request latency
  std::vector<double> wait_ms;  // per-request admission wait (stats delta)
};

struct FairnessResult {
  double jain = 0.0;
  ClassSamples chatty, sparse;
  long sessions_created = 0;
};

FairnessResult RunFairness(long n_base, long run_ms) {
  constexpr int kChattyTenants = 4, kConnsPerChatty = 3, kSparseTenants = 12;
  constexpr int kTenants = kChattyTenants + kSparseTenants;
  constexpr int kEvalsPerSession = 8;  // session churn: fresh Session after this many

  mz::ServingOptions serving;
  serving.pool_threads = 4;
  serving.max_pool_sessions = 1;  // one token: admission order IS the schedule
  serving.serial_cutoff_elems = 256;  // every request in this mix is pooled-class
  mz::ServingContext ctx(serving);

  std::vector<std::atomic<std::int64_t>> per_tenant(kTenants);
  std::atomic<long> sessions{0};
  std::mutex merge_mu;
  FairnessResult res;

  const std::int64_t deadline = mz::NowNanos() + run_ms * 1'000'000;

  auto connection = [&](int tenant, int conn, bool chatty) {
    std::mt19937 rng(static_cast<unsigned>(tenant * 131 + conn + 7));
    // Zipf-skewed plan mix: sizes n, 2n, 4n, 8n with weight 1/k^1.2.
    std::discrete_distribution<int> zipf(
        {1.0, std::pow(2.0, -1.2), std::pow(3.0, -1.2), std::pow(4.0, -1.2)});
    const std::size_t cap = static_cast<std::size_t>(8 * n_base);
    std::vector<double> a(cap, 1.5), b(cap, 2.5), out(cap);
    ClassSamples local;

    while (mz::NowNanos() < deadline) {
      mz::SessionOptions opts;
      opts.serving = &ctx;
      // All of a tenant's connections share one admission identity: under
      // DRR they jointly earn one rotation slot's worth of admissions.
      opts.admission_session = static_cast<std::uint64_t>(tenant + 1);
      mz::Session session(opts);
      sessions.fetch_add(1, std::memory_order_relaxed);
      mz::Session::Scope scope(session);
      for (int e = 0; e < kEvalsPerSession && mz::NowNanos() < deadline; ++e) {
        const long n = n_base << zipf(rng);
        const std::int64_t w0 =
            session.stats().admission_wait_ns.load(std::memory_order_relaxed);
        const std::int64_t t0 = mz::NowNanos();
        Pipeline(n, a.data(), b.data(), out.data());
        session.Evaluate();
        session.Reset();
        const std::int64_t t1 = mz::NowNanos();
        const std::int64_t w1 =
            session.stats().admission_wait_ns.load(std::memory_order_relaxed);
        local.lat_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        local.wait_ms.push_back(static_cast<double>(w1 - w0) * 1e-6);
        per_tenant[static_cast<std::size_t>(tenant)].fetch_add(1, std::memory_order_relaxed);
      }
    }

    std::lock_guard<std::mutex> lock(merge_mu);
    ClassSamples& cls = chatty ? res.chatty : res.sparse;
    cls.lat_ms.insert(cls.lat_ms.end(), local.lat_ms.begin(), local.lat_ms.end());
    cls.wait_ms.insert(cls.wait_ms.end(), local.wait_ms.begin(), local.wait_ms.end());
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kChattyTenants; ++t) {
    for (int c = 0; c < kConnsPerChatty; ++c) {
      threads.emplace_back(connection, t, c, /*chatty=*/true);
    }
  }
  for (int t = kChattyTenants; t < kTenants; ++t) {
    threads.emplace_back(connection, t, 0, /*chatty=*/false);
  }
  for (std::thread& th : threads) {
    th.join();
  }

  std::vector<double> completions(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    completions[static_cast<std::size_t>(t)] =
        static_cast<double>(per_tenant[static_cast<std::size_t>(t)].load());
  }
  res.jain = Jain(completions);
  res.sessions_created = sessions.load();
  return res;
}

// --------------------------------------- 2. lone client vs. batch window ----

struct LoneClientResult {
  std::vector<double> lat_us;
  std::int64_t adapted_window_us = 0;
  std::int64_t dispatches = 0;
};

LoneClientResult RunLoneClient(long n, int evals) {
  mz::ServingOptions serving;
  serving.pool_threads = 2;
  serving.max_pool_sessions = 2;
  serving.serial_cutoff_elems = 1 << 20;  // inline-class: everything rides the batcher
  serving.batch_window_us = 400;
  serving.batch_max_plans = 8;
  mz::ServingContext ctx(serving);

  LoneClientResult res;
  {
    const std::size_t size = static_cast<std::size_t>(n);
    std::vector<double> a(size, 1.5), b(size, 2.5), out(size);
    mz::SessionOptions opts;
    opts.serving = &ctx;
    mz::Session session(opts);
    mz::Session::Scope scope(session);
    // Open arrival process: exponential think time (mean 1.5 ms) between
    // submissions, independent of completions — the smoothed inter-arrival
    // gap sits well past the 400 us window, so no rider is ever predicted.
    std::mt19937 rng(42);
    std::exponential_distribution<double> think(1.0 / 1500.0);  // mean, us
    for (int e = 0; e < evals; ++e) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(think(rng))));
      const std::int64_t t0 = mz::NowNanos();
      Pipeline(n, a.data(), b.data(), out.data());
      session.Evaluate();
      session.Reset();
      res.lat_us.push_back(static_cast<double>(mz::NowNanos() - t0) * 1e-3);
    }
    res.dispatches = ctx.batcher()->dispatches();
  }
  res.adapted_window_us = ctx.AggregateStats().batch_window_adapted_us;
  return res;
}

// ------------------------------------------------- 3. cache byte budget ----

struct CacheBudgetResult {
  std::size_t resident_entries = 0;
  std::size_t charged_bytes = 0;
  std::int64_t evictions = 0;
};

CacheBudgetResult RunCacheBudget(int templates, long n_base) {
  mz::ServingOptions serving;
  serving.pool_threads = 2;
  serving.max_pool_sessions = 2;
  serving.serial_cutoff_elems = 1 << 20;  // inline: planning cost is the workload
  serving.plan_cache_entries = 1 << 14;   // entry cap out of the way
  serving.plan_cache_bytes = 64 * 1024;   // the contended budget
  mz::ServingContext ctx(serving);

  {
    const std::size_t cap = static_cast<std::size_t>(n_base + templates);
    std::vector<double> a(cap, 1.5), b(cap, 2.5), out(cap);
    mz::SessionOptions opts;
    opts.serving = &ctx;
    mz::Session session(opts);
    mz::Session::Scope scope(session);
    for (int k = 0; k < templates; ++k) {
      // Each size is a distinct plan key: a steady stream of new templates
      // pushing against the byte budget.
      Pipeline(n_base + k, a.data(), b.data(), out.data());
      session.Evaluate();
      session.Reset();
    }
  }

  CacheBudgetResult res;
  res.resident_entries = ctx.plan_cache().size();
  res.charged_bytes = ctx.plan_cache().bytes();
  res.evictions = ctx.plan_cache().evictions();
  return res;
}

// ---------------------------- 4. deadline clients, shedding on vs. off ----

struct SheddingResult {
  std::vector<double> served_ms;  // latency of requests that completed
  std::int64_t met = 0;           // completions within the deadline
  std::int64_t attempts = 0;
  std::int64_t shed = 0;     // OverloadError: rejected before any queueing
  std::int64_t aborted = 0;  // DeadlineError / CancelledError after admission
  double wall_s = 0.0;
};

SheddingResult RunShedding(bool shedding, long n, long deadline_us, long run_ms) {
  constexpr int kClients = 12;

  mz::ServingOptions serving;
  serving.pool_threads = 4;
  serving.max_pool_sessions = 1;  // one token: offered load is ~12x capacity
  serving.serial_cutoff_elems = 256;  // pooled-class only
  mz::ServingContext ctx(serving);

  std::mutex merge_mu;
  SheddingResult res;
  const std::int64_t t_start = mz::NowNanos();
  const std::int64_t t_end = t_start + run_ms * 1'000'000;

  auto client = [&](int id) {
    const std::size_t size = static_cast<std::size_t>(n);
    std::vector<double> a(size, 1.5 + id), b(size, 2.5), out(size);
    mz::SessionOptions opts;
    opts.serving = &ctx;
    mz::Session session(opts);
    mz::Session::Scope scope(session);
    SheddingResult local;

    while (mz::NowNanos() < t_end) {
      ++local.attempts;
      const std::int64_t t0 = mz::NowNanos();
      Pipeline(n, a.data(), b.data(), out.data());
      try {
        if (shedding) {
          mz::CancelSource src;
          src.SetDeadlineNanos(t0 + deadline_us * 1000);
          mz::EvalOptions eo;
          eo.cancel = src.token();
          session.Evaluate(eo);
        } else {
          session.Evaluate();
        }
        session.Reset();
        const double lat_ms = static_cast<double>(mz::NowNanos() - t0) * 1e-6;
        local.served_ms.push_back(lat_ms);
        if (lat_ms * 1000.0 <= static_cast<double>(deadline_us)) {
          ++local.met;
        }
      } catch (const mz::OverloadError& e) {
        ++local.shed;
        session.Reset();
        // The structured backpressure hint in action: pace the retry.
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<std::int64_t>(e.retry_after_us, 1000)));
      } catch (const mz::CancelledError&) {  // DeadlineError included
        ++local.aborted;
        session.Reset();
      }
    }

    std::lock_guard<std::mutex> lock(merge_mu);
    res.served_ms.insert(res.served_ms.end(), local.served_ms.begin(), local.served_ms.end());
    res.met += local.met;
    res.attempts += local.attempts;
    res.shed += local.shed;
    res.aborted += local.aborted;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(client, c);
  }
  for (std::thread& th : threads) {
    th.join();
  }
  res.wall_s = static_cast<double>(mz::NowNanos() - t_start) * 1e-9;
  return res;
}

// ------------------- 5. resilient clients under a faulty/overloaded gate ----

enum class RetryPolicy { kNaive, kBudgeted, kBudgetedHedged };

struct ResilienceRunResult {
  std::vector<double> served_ms;
  std::int64_t met = 0;
  std::int64_t attempts = 0;
  std::int64_t failures = 0;  // requests that never completed
  std::int64_t retries = 0;
  std::int64_t budget_exhausted = 0;
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
  double wall_s = 0.0;
};

// Overload + transient faults: 12 deadline-bearing clients on ONE admission
// token (offered load ~12x capacity) with the fault injector failing ~15%
// of evals at the plan-cache lookup site. The naive client is the classic anti-pattern: retry
// immediately on any error, deadline-blind, no backoff — it keeps every
// rejected request in the system and serves almost nothing on time. The
// budgeted client (ResilientClient) propagates the deadline (the gate sheds
// infeasible work up front), paces retries on retry_after_us with jittered
// backoff, and stops retrying when the budget empties — goodput is work the
// server actually had capacity for. The hedged variant adds tail hedging on
// top; under overload the shared budget keeps it from doubling load.
ResilienceRunResult RunResilientOverload(RetryPolicy policy, long n, long deadline_us,
                                         long run_ms) {
  constexpr int kClients = 12;

  mz::ServingOptions serving;
  serving.pool_threads = 4;
  serving.max_pool_sessions = 1;
  serving.serial_cutoff_elems = 256;  // pooled-class only
  mz::ServingContext ctx(serving);

  mz::FaultConfig faults;
  faults.seed = 0x5091;
  faults.p_throw = 0.15;
  // Once-per-eval site: a clean "15% of requests hit a transient fault"
  // model. The exec.* sites fire per piece, which at 8 pieces per plan would
  // compound into a near-certain failure per eval and swamp the experiment.
  faults.only_site = "plan_cache.lookup";
  mz::FaultInjector::Global().Arm(faults);

  std::mutex merge_mu;
  ResilienceRunResult res;
  const std::int64_t t_start = mz::NowNanos();
  const std::int64_t t_end = t_start + run_ms * 1'000'000;

  auto client_loop = [&](int id) {
    const std::size_t size = static_cast<std::size_t>(n);
    std::vector<double> a(size, 1.5 + id), b(size, 2.5);
    std::vector<double> out[2] = {std::vector<double>(size), std::vector<double>(size)};
    mz::SessionOptions opts;
    opts.serving = &ctx;
    mz::Session session(opts);

    mz::ResilienceOptions ro;
    ro.max_attempts = 6;
    ro.breaker_enabled = false;  // isolate the retry policy in this experiment
    ro.jitter_seed = 0x5eed + static_cast<std::uint64_t>(id);
    if (policy == RetryPolicy::kBudgetedHedged) {
      ro.hedge_enabled = true;
      ro.hedge_min_us = 500;
    }
    mz::ResilientClient client(session, ro);
    ResilienceRunResult local;

    while (mz::NowNanos() < t_end) {
      ++local.attempts;
      const std::int64_t t0 = mz::NowNanos();
      bool served = false;
      if (policy == RetryPolicy::kNaive) {
        // Naive: hammer until it goes through, ignore the deadline and every
        // backpressure hint the server sends.
        for (int tries = 0; tries < 6 && !served && mz::NowNanos() < t_end; ++tries) {
          try {
            {
              mz::Session::Scope scope(session);
              Pipeline(n, a.data(), b.data(), out[0].data());
            }
            session.Evaluate();
            session.Reset();
            served = true;
          } catch (const mz::Error&) {
            session.Reset();  // and retry instantly: the retry storm
          }
        }
      } else {
        mz::CancelSource src;
        src.SetDeadlineNanos(t0 + deadline_us * 1000);
        mz::EvalOptions eo;
        eo.cancel = src.token();
        try {
          client.Eval(
              [&](mz::Session& s, const mz::EvalOptions&, int lane) {
                mz::Session::Scope scope(s);
                Pipeline(n, a.data(), b.data(), out[lane].data());
              },
              eo);
          served = true;
        } catch (const mz::OverloadError& e) {
          // Final rejection after the policy stack gave up: pace the next
          // request on the structured hint, exactly like experiment 4. The
          // hint must be honored in full — undercutting it re-offers work the
          // gate already said is infeasible and starves the run of goodput.
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::min<std::int64_t>(std::max<std::int64_t>(e.retry_after_us, 100), 20'000)));
        } catch (const mz::Error&) {  // deadline, cancel, fault leakage
        }
      }
      if (served) {
        const double lat_ms = static_cast<double>(mz::NowNanos() - t0) * 1e-6;
        local.served_ms.push_back(lat_ms);
        if (lat_ms * 1000.0 <= static_cast<double>(deadline_us)) {
          ++local.met;
        }
      } else {
        ++local.failures;
      }
    }

    std::lock_guard<std::mutex> lock(merge_mu);
    res.served_ms.insert(res.served_ms.end(), local.served_ms.begin(), local.served_ms.end());
    res.met += local.met;
    res.attempts += local.attempts;
    res.failures += local.failures;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& th : threads) {
    th.join();
  }
  mz::FaultInjector::Global().Disarm();
  res.wall_s = static_cast<double>(mz::NowNanos() - t_start) * 1e-9;

  const mz::EvalStats::Snapshot agg = ctx.AggregateStats();
  res.retries = agg.retries;
  res.budget_exhausted = agg.retry_budget_exhausted;
  res.hedges = agg.hedges_launched;
  res.hedge_wins = agg.hedge_wins;
  return res;
}

// Straggler tail: an uncontended context where ~8% of primary attempts stall
// 5 ms — a GC pause / page fault stand-in — against sub-100us evaluations.
// The stall polls the eval's cancel token (a straggling backend observes
// cancellation; it doesn't vanish), so when the hedge lane wins and cancels
// the primary, the caller gets the hedge's answer at hedge speed instead of
// waiting out the stall — that early return is what collapses the served p99.
ResilienceRunResult RunHedging(bool hedged, long n, long run_ms) {
  constexpr int kClients = 2;
  constexpr double kStraggleP = 0.08;
  constexpr std::int64_t kStraggleNs = 5'000'000;

  mz::ServingOptions serving;
  serving.pool_threads = 2;
  serving.max_pool_sessions = 2;
  serving.serial_cutoff_elems = 1 << 20;  // inline-class: no token contention
  mz::ServingContext ctx(serving);

  std::mutex merge_mu;
  ResilienceRunResult res;
  const std::int64_t t_start = mz::NowNanos();
  const std::int64_t t_end = t_start + run_ms * 1'000'000;

  auto client_loop = [&](int id) {
    const std::size_t size = static_cast<std::size_t>(n);
    std::vector<double> a(size, 1.5 + id), b(size, 2.5);
    std::vector<double> out[2] = {std::vector<double>(size), std::vector<double>(size)};
    mz::SessionOptions opts;
    opts.serving = &ctx;
    mz::Session session(opts);

    mz::ResilienceOptions ro;
    ro.breaker_enabled = false;
    ro.jitter_seed = 0x5eed + static_cast<std::uint64_t>(id);
    ro.hedge_enabled = hedged;
    ro.hedge_quantile = 0.75;  // arm well under the straggle fraction
    // Hedges spend retry budget; a straggle-heavy tail needs a faster earn
    // rate than the retry default or hedging self-extinguishes mid-run.
    ro.retry_budget_ratio = 0.3;
    ro.retry_budget_burst = 50.0;
    mz::ResilientClient client(session, ro);
    mz::Rng straggle_rng(0x57A6 + static_cast<std::uint64_t>(id));
    ResilienceRunResult local;

    while (mz::NowNanos() < t_end) {
      ++local.attempts;
      const bool straggle = straggle_rng.NextDouble(0.0, 1.0) < kStraggleP;
      const std::int64_t t0 = mz::NowNanos();
      try {
        client.Eval([&](mz::Session& s, const mz::EvalOptions& eo, int lane) {
          if (straggle && lane == 0) {
            // Stall the primary lane only: the hedge lands on a different
            // replica in the scenario this models. Poll the token so a hedge
            // win releases the caller immediately.
            const std::int64_t stall_end = mz::NowNanos() + kStraggleNs;
            while (mz::NowNanos() < stall_end && !eo.cancel.stop_requested()) {
              std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
          }
          mz::Session::Scope scope(s);
          Pipeline(n, a.data(), b.data(), out[lane].data());
        });
        local.served_ms.push_back(static_cast<double>(mz::NowNanos() - t0) * 1e-6);
      } catch (const mz::Error&) {
        ++local.failures;
      }
    }

    std::lock_guard<std::mutex> lock(merge_mu);
    res.served_ms.insert(res.served_ms.end(), local.served_ms.begin(), local.served_ms.end());
    res.attempts += local.attempts;
    res.failures += local.failures;
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& th : threads) {
    th.join();
  }
  res.wall_s = static_cast<double>(mz::NowNanos() - t_start) * 1e-9;

  const mz::EvalStats::Snapshot agg = ctx.AggregateStats();
  res.retries = agg.retries;
  res.budget_exhausted = agg.retry_budget_exhausted;
  res.hedges = agg.hedges_launched;
  res.hedge_wins = agg.hedge_wins;
  return res;
}

void EmitClass(const std::string& config, const char* cls, const ClassSamples& s) {
  std::printf("  %-6s %-6s  %8zu reqs   lat p50/p95/p99 %8.3f %8.3f %8.3f ms   "
              "wait p50/p95/p99 %8.3f %8.3f %8.3f ms\n",
              config.c_str(), cls, s.lat_ms.size(), Pct(s.lat_ms, 50), Pct(s.lat_ms, 95),
              Pct(s.lat_ms, 99), Pct(s.wait_ms, 50), Pct(s.wait_ms, 95), Pct(s.wait_ms, 99));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_completions",
                static_cast<double>(s.lat_ms.size()));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_p50_ms",
                Pct(s.lat_ms, 50));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_p95_ms",
                Pct(s.lat_ms, 95));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_p99_ms",
                Pct(s.lat_ms, 99));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_wait_p50_ms",
                Pct(s.wait_ms, 50));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_wait_p95_ms",
                Pct(s.wait_ms, 95));
  bench::Metric("loadgen_serving", "fairness", config, std::string(cls) + "_wait_p99_ms",
                Pct(s.wait_ms, 99));
}

}  // namespace

int main() {
  mzvec::EnsureRegistered();

  bench::Title("Fairness: 4 chatty tenants (3 connections each) vs. 12 sparse tenants, "
               "one admission token");
  const long n_fair = std::max<long>(4096, bench::Scaled(16384));
  const long run_ms = std::max<long>(30, bench::Scaled(400));
  bench::Note("closed loop for " + std::to_string(run_ms) + " ms; zipf sizes " +
              std::to_string(n_fair) + "..." + std::to_string(8 * n_fair) +
              "; Jain index over per-tenant completions (16 tenants; per-connection "
              "service would score (4*3+12)^2 / (16*(4*9+12)) = 0.75)");
  {
    const std::string config = "drr";
    FairnessResult r = RunFairness(n_fair, run_ms);
    std::printf("  %-6s Jain over tenants %.3f   (%ld sessions churned)\n", config.c_str(),
                r.jain, r.sessions_created);
    EmitClass(config, "chatty", r.chatty);
    EmitClass(config, "sparse", r.sparse);
    bench::Metric("loadgen_serving", "fairness", config, "jain_tenant_index", r.jain);
    bench::Metric("loadgen_serving", "fairness", config, "sessions",
                  static_cast<double>(r.sessions_created));
  }

  bench::Title("Lone client vs. a 400 us batch window, open arrivals (mean 1.5 ms apart)");
  const int evals = static_cast<int>(std::max<long>(20, bench::Scaled(300)));
  bench::Note(std::to_string(evals) + " evaluations of a 1024-elem inline-class plan; the "
              "adaptive window predicts no rider and skips the wait");
  {
    const std::string config = "adaptive_window";
    // n deliberately NOT scaled: must stay inline-class at every bench scale.
    LoneClientResult r = RunLoneClient(/*n=*/1024, evals);
    std::printf("  %-16s lat p50/p95/p99 %8.1f %8.1f %8.1f us   adapted window total %lld us"
                "   %lld dispatches\n",
                config.c_str(), Pct(r.lat_us, 50), Pct(r.lat_us, 95), Pct(r.lat_us, 99),
                static_cast<long long>(r.adapted_window_us),
                static_cast<long long>(r.dispatches));
    bench::Metric("loadgen_serving", "lone_client", config, "p50_us", Pct(r.lat_us, 50));
    bench::Metric("loadgen_serving", "lone_client", config, "p95_us", Pct(r.lat_us, 95));
    bench::Metric("loadgen_serving", "lone_client", config, "p99_us", Pct(r.lat_us, 99));
    bench::Metric("loadgen_serving", "lone_client", config, "adapted_window_us",
                  static_cast<double>(r.adapted_window_us));
  }

  bench::Title("Plan-cache byte budget (64 KiB), allocator-true accounting");
  const int templates = static_cast<int>(std::max<long>(64, bench::Scaled(192)));
  bench::Note(std::to_string(templates) + " distinct plan templates inserted; the cache "
              "charges real heap footprints (capacity slack, allocator rounding)");
  {
    const std::string config = "true_bytes";
    CacheBudgetResult r = RunCacheBudget(templates, /*n_base=*/2048);
    std::printf("  %-10s %6zu resident entries, %8zu charged bytes, %6lld evictions\n",
                config.c_str(), r.resident_entries, r.charged_bytes,
                static_cast<long long>(r.evictions));
    bench::Metric("loadgen_serving", "cache_accounting", config, "resident_entries",
                  static_cast<double>(r.resident_entries));
    bench::Metric("loadgen_serving", "cache_accounting", config, "charged_bytes",
                  static_cast<double>(r.charged_bytes));
    bench::Metric("loadgen_serving", "cache_accounting", config, "evictions",
                  static_cast<double>(r.evictions));
  }

  bench::Title("Deadline-bearing clients at ~12x overload: load shedding on vs. off");
  const long n_shed = std::max<long>(32768, bench::Scaled(131072));
  const long shed_run_ms = std::max<long>(50, bench::Scaled(400));
  const long deadline_us = 2000;
  bench::Note("12 closed-loop clients, one admission token, " + std::to_string(n_shed) +
              "-elem pooled plans, " + std::to_string(deadline_us) +
              " us deadlines for " + std::to_string(shed_run_ms) +
              " ms; goodput counts only deadline-met completions. Shedding rejects "
              "infeasible requests up front (clients pace retries on retry_after_us); "
              "the ablation queues everything and serves most of it late");
  for (bool shedding : {false, true}) {
    const std::string config = shedding ? "shedding_on" : "shedding_off";
    SheddingResult r = RunShedding(shedding, n_shed, deadline_us, shed_run_ms);
    const double goodput = static_cast<double>(r.met) / std::max(r.wall_s, 1e-9);
    const double shed_rate =
        static_cast<double>(r.shed) / std::max<double>(1.0, static_cast<double>(r.attempts));
    std::printf("  %-12s goodput %8.1f met/s   served p50/p99 %8.3f %8.3f ms   "
                "shed %5.1f%%   aborted %lld / %lld attempts\n",
                config.c_str(), goodput, Pct(r.served_ms, 50), Pct(r.served_ms, 99),
                100.0 * shed_rate, static_cast<long long>(r.aborted),
                static_cast<long long>(r.attempts));
    bench::Metric("loadgen_serving", "deadline_shedding", config, "goodput_met_per_s", goodput);
    bench::Metric("loadgen_serving", "deadline_shedding", config, "served_p50_ms",
                  Pct(r.served_ms, 50));
    bench::Metric("loadgen_serving", "deadline_shedding", config, "served_p99_ms",
                  Pct(r.served_ms, 99));
    bench::Metric("loadgen_serving", "deadline_shedding", config, "shed_rate", shed_rate);
    bench::Metric("loadgen_serving", "deadline_shedding", config, "aborted",
                  static_cast<double>(r.aborted));
    bench::Metric("loadgen_serving", "deadline_shedding", config, "attempts",
                  static_cast<double>(r.attempts));
  }

  bench::Title("Resilient clients at ~12x overload with 15% transient faults: "
               "naive vs. budgeted vs. budgeted+hedged retries");
  const long n_res = std::max<long>(32768, bench::Scaled(131072));
  const long res_run_ms = std::max<long>(50, bench::Scaled(400));
  bench::Note("12 clients, one admission token, " + std::to_string(n_res) +
              "-elem pooled plans, 2000 us deadlines for " + std::to_string(res_run_ms) +
              " ms. Naive retries instantly and deadline-blind (the retry storm); "
              "budgeted propagates deadlines, paces on retry_after_us, and spends a "
              "token-bucket retry budget; +hedged adds tail hedging from the same budget");
  for (RetryPolicy policy :
       {RetryPolicy::kNaive, RetryPolicy::kBudgeted, RetryPolicy::kBudgetedHedged}) {
    const std::string config = policy == RetryPolicy::kNaive      ? "naive"
                               : policy == RetryPolicy::kBudgeted ? "budgeted"
                                                                  : "budgeted_hedged";
    ResilienceRunResult r = RunResilientOverload(policy, n_res, /*deadline_us=*/2000, res_run_ms);
    const double goodput = static_cast<double>(r.met) / std::max(r.wall_s, 1e-9);
    std::printf("  %-16s goodput %8.1f met/s   served p50/p99 %8.3f %8.3f ms   "
                "%lld served, %lld failed / %lld requests   %lld retries "
                "(%lld budget-stopped)   %lld hedges (%lld wins)\n",
                config.c_str(), goodput, Pct(r.served_ms, 50), Pct(r.served_ms, 99),
                static_cast<long long>(r.served_ms.size()), static_cast<long long>(r.failures),
                static_cast<long long>(r.attempts), static_cast<long long>(r.retries),
                static_cast<long long>(r.budget_exhausted), static_cast<long long>(r.hedges),
                static_cast<long long>(r.hedge_wins));
    bench::Metric("loadgen_serving", "resilience_retry", config, "goodput_met_per_s", goodput);
    bench::Metric("loadgen_serving", "resilience_retry", config, "served_p50_ms",
                  Pct(r.served_ms, 50));
    bench::Metric("loadgen_serving", "resilience_retry", config, "served_p99_ms",
                  Pct(r.served_ms, 99));
    bench::Metric("loadgen_serving", "resilience_retry", config, "requests",
                  static_cast<double>(r.attempts));
    bench::Metric("loadgen_serving", "resilience_retry", config, "failures",
                  static_cast<double>(r.failures));
    bench::Metric("loadgen_serving", "resilience_retry", config, "retries",
                  static_cast<double>(r.retries));
    bench::Metric("loadgen_serving", "resilience_retry", config, "budget_exhausted",
                  static_cast<double>(r.budget_exhausted));
    bench::Metric("loadgen_serving", "resilience_retry", config, "hedges",
                  static_cast<double>(r.hedges));
  }

  bench::Title("Tail hedging vs. 5 ms primary-lane stragglers (~8% of attempts), "
               "uncontended context");
  const long hedge_run_ms = std::max<long>(50, bench::Scaled(400));
  bench::Note("2 clients, inline-class 1024-elem plans for " + std::to_string(hedge_run_ms) +
              " ms; stalls poll the cancel token. The hedge timer arms at the online "
              "p75 latency estimate, the winner cancels the loser lane, hedges debit "
              "the shared retry budget");
  for (bool hedged : {false, true}) {
    const std::string config = hedged ? "hedge_on" : "hedge_off";
    // n deliberately NOT scaled: the straggle/service ratio is the subject.
    ResilienceRunResult r = RunHedging(hedged, /*n=*/1024, hedge_run_ms);
    std::printf("  %-10s served p50/p95/p99 %8.3f %8.3f %8.3f ms   %lld evals   "
                "%lld hedges (%lld wins)\n",
                config.c_str(), Pct(r.served_ms, 50), Pct(r.served_ms, 95),
                Pct(r.served_ms, 99), static_cast<long long>(r.served_ms.size()),
                static_cast<long long>(r.hedges), static_cast<long long>(r.hedge_wins));
    bench::Metric("loadgen_serving", "resilience_hedge", config, "p50_ms", Pct(r.served_ms, 50));
    bench::Metric("loadgen_serving", "resilience_hedge", config, "p95_ms", Pct(r.served_ms, 95));
    bench::Metric("loadgen_serving", "resilience_hedge", config, "p99_ms", Pct(r.served_ms, 99));
    bench::Metric("loadgen_serving", "resilience_hedge", config, "evals",
                  static_cast<double>(r.served_ms.size()));
    bench::Metric("loadgen_serving", "resilience_hedge", config, "hedges",
                  static_cast<double>(r.hedges));
    bench::Metric("loadgen_serving", "resilience_hedge", config, "hedge_wins",
                  static_cast<double>(r.hedge_wins));
  }
  return 0;
}
