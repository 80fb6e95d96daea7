// Serving-layer throughput: N simulated clients over one ServingContext.
//
// Three experiments, all reported as *relative* numbers (single-core CI —
// see ROADMAP):
//
//  1. Throughput sweep — 1/4/16 clients each repeatedly evaluating the same
//     three-node vecmath pipeline, cold (first round: every client misses
//     the plan cache) vs. warm, plus hit rate and the admission split.
//     Warm throughput should scale until the pool saturates; warm vs. cold
//     shows the planning cost the cache amortizes away.
//
//  2. Capped LRU plan cache — a skewed working set (per client per round:
//     many evaluations cycling a small shared hot set + one one-off size)
//     with the cache capped below the working-set size. LRU keeps the hot
//     templates resident, so the warm hit rate stays near the hot fraction.
//
//  3. Loaded pool: fixed vs. adaptive vs. adaptive+batching — half the
//     clients run large pooled plans to congest the queue while the other
//     half run small ones. Watch the policies move: under the adaptive
//     gate, mid-size plans migrate inline ("large inline" column) and
//     token-wait time collapses as the smoothed queue depth climbs; with
//     batching on, the collector coalesces the small-plan stream into far
//     fewer dispatches (paper §6: amortize per-invocation overhead across
//     requests). On a single-core CI box the wall-clock columns are noisy —
//     read the routing and wait columns, not absolute throughput.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/cpu.h"
#include "core/client.h"
#include "core/session.h"
#include "vecmath/annotated.h"

namespace {

constexpr long kBaseElems = 1 << 18;  // per client, ~6 MB of doubles
constexpr int kWarmRounds = 8;

void Pipeline(long n, const double* a, const double* b, double* out) {
  mzvec::Log1p(n, a, out);
  mzvec::Add(n, out, b, out);
  mzvec::Div(n, out, b, out);
}

// ---------------------------------------------------------------- sweep ----

struct SweepResult {
  double cold_evals_per_sec = 0;
  double warm_evals_per_sec = 0;
  mz::EvalStats::Snapshot stats;
};

SweepResult RunClients(int num_clients, long n) {
  mz::ServingContext ctx(mz::ServingOptions{
      .pool_threads = 0,  // machine-sized
      .max_pool_sessions = 2,
      .serial_cutoff_elems = 4096,
  });

  std::vector<std::vector<double>> a(static_cast<std::size_t>(num_clients));
  std::vector<std::vector<double>> b(static_cast<std::size_t>(num_clients));
  std::vector<std::vector<double>> out(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    a[static_cast<std::size_t>(c)].assign(static_cast<std::size_t>(n), 1.5 + c);
    b[static_cast<std::size_t>(c)].assign(static_cast<std::size_t>(n), 2.5 + c);
    out[static_cast<std::size_t>(c)].resize(static_cast<std::size_t>(n));
  }

  // One round = every client evaluates the pipeline once.
  auto run_round = [&] {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_clients));
    for (int c = 0; c < num_clients; ++c) {
      threads.emplace_back([&, c] {
        mz::SessionOptions opts;
        opts.serving = &ctx;
        mz::Session session(opts);
        mz::Session::Scope scope(session);
        Pipeline(n, a[static_cast<std::size_t>(c)].data(), b[static_cast<std::size_t>(c)].data(),
                 out[static_cast<std::size_t>(c)].data());
        session.Evaluate();
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  };

  SweepResult r;
  {
    mz::WallTimer timer;
    run_round();  // cold: plan cache empty
    r.cold_evals_per_sec = static_cast<double>(num_clients) / timer.ElapsedSeconds();
  }
  {
    mz::WallTimer timer;
    for (int round = 0; round < kWarmRounds; ++round) {
      run_round();
    }
    r.warm_evals_per_sec =
        static_cast<double>(num_clients) * kWarmRounds / timer.ElapsedSeconds();
  }
  r.stats = ctx.AggregateStats();
  return r;
}

// ------------------------------------------------------ capped LRU cache ----

struct CappedCacheResult {
  double warm_hit_rate = 0;  // measured after one warmup round
  std::int64_t evictions = 0;
};

// Skewed access: per client per round, kHotEvals evaluations cycling over
// kHotKeys shared hot sizes plus ONE one-off size never seen again. The
// cache cap leaves room for the hot set plus a couple of one-offs, and the
// constantly touched hot templates are never the LRU victim.
CappedCacheResult RunCappedCache(int num_clients, long n_hot) {
  constexpr int kHotKeys = 4;
  constexpr int kHotEvals = 16;  // four passes over the hot set per round
  constexpr int kRounds = 6;
  constexpr std::size_t kCacheCap = 6;

  mz::ServingContext ctx(mz::ServingOptions{
      .pool_threads = 0,
      .max_pool_sessions = 2,
      .serial_cutoff_elems = 4096,
      .plan_cache_entries = kCacheCap,
  });

  auto client_body = [&](int c, int rounds, bool measured) {
    const std::size_t size = static_cast<std::size_t>(n_hot) + 4096;
    std::vector<double> a(size, 1.5 + c);
    std::vector<double> b(size, 2.5 + c);
    std::vector<double> out(size);
    mz::SessionOptions opts;
    opts.serving = &ctx;
    mz::Session session(opts);
    mz::Session::Scope scope(session);
    for (int r = 0; r < rounds; ++r) {
      for (int e = 0; e < kHotEvals; ++e) {
        // Hot sizes are shared across every client: kHotKeys plan keys.
        const long n_e = n_hot + 7 * (e % kHotKeys);
        Pipeline(n_e, a.data(), b.data(), out.data());
        session.Evaluate();
        session.Reset();
      }
      if (measured) {
        // One-off: a size unique to (client, round) — a new plan key that
        // is inserted once and never looked up again.
        const long n_unique = n_hot + 7 * kHotKeys + 1 + c * kRounds + r;
        Pipeline(n_unique, a.data(), b.data(), out.data());
        session.Evaluate();
        session.Reset();
      }
    }
  };

  client_body(0, 1, /*measured=*/false);  // warmup: hot templates resident
  const std::int64_t hits0 = ctx.plan_cache().hits();
  const std::int64_t misses0 = ctx.plan_cache().misses();

  std::vector<std::thread> threads;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back(client_body, c, kRounds, true);
  }
  for (std::thread& t : threads) {
    t.join();
  }

  CappedCacheResult r;
  const double hits = static_cast<double>(ctx.plan_cache().hits() - hits0);
  const double misses = static_cast<double>(ctx.plan_cache().misses() - misses0);
  r.warm_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r.evictions = ctx.plan_cache().evictions();
  return r;
}

// ------------------------------------- loaded pool, fixed vs. adaptive ----

struct LoadedResult {
  double small_cold_evals_per_sec = 0;
  double small_warm_evals_per_sec = 0;
  mz::EvalStats::Snapshot stats;
  std::int64_t batch_dispatches = 0;
  std::int64_t batch_jobs = 0;
};

// `small_clients` evaluate a tiny pipeline while `large_clients` congest
// the shared pool with full-width plans for a fixed amount of work.
// Small-client throughput and where the large plans ran (pooled vs. pushed
// inline by the adaptive cutoff) are what the policies move.
LoadedResult RunLoaded(bool adaptive, bool batching, int small_clients, int large_clients,
                       long n_small, long n_large) {
  constexpr int kSmallRounds = 30;
  constexpr int kLargeRounds = 6;

  mz::ServingOptions serving;
  // At least 4 workers even on a small machine: queue depth only builds
  // when stage dispatches actually queue, and the adaptive gate needs depth
  // to observe.
  serving.pool_threads = std::max(4, mz::NumLogicalCpus());
  serving.max_pool_sessions = 2;
  serving.serial_cutoff_elems = 2048;
  serving.adaptive_admission = adaptive;
  // React to shallow queues too: a handful of queued stage dispatches is
  // already contention at this plan size.
  serving.admission_tuning.congested_depth = 4.0;
  serving.admission_tuning.ewma_alpha = 0.4;
  // The experiment is about mid-size plans migrating inline, so the cutoff
  // range must actually reach them: at full congestion even the large
  // plans qualify, whatever the bench scale made them.
  serving.admission_tuning.base_cutoff_elems = serving.serial_cutoff_elems;
  serving.admission_tuning.max_cutoff_elems = 2 * n_large;
  // The window must stay well under a small plan's execution cost or the
  // wait dominates what batching amortizes.
  serving.batch_window_us = batching ? 25 : 0;
  serving.batch_max_plans = 8;
  mz::ServingContext ctx(serving);

  std::vector<std::thread> large;
  for (int c = 0; c < large_clients; ++c) {
    large.emplace_back([&, c] {
      const std::size_t size = static_cast<std::size_t>(n_large);
      std::vector<double> a(size, 1.5 + c);
      std::vector<double> b(size, 2.5 + c);
      std::vector<double> out(size);
      mz::SessionOptions opts;
      opts.serving = &ctx;
      mz::Session session(opts);
      mz::Session::Scope scope(session);
      for (int r = 0; r < kLargeRounds; ++r) {
        Pipeline(n_large, a.data(), b.data(), out.data());
        session.Evaluate();
        session.Reset();
      }
    });
  }

  auto run_small_round = [&](int rounds) {
    std::vector<std::thread> threads;
    for (int c = 0; c < small_clients; ++c) {
      threads.emplace_back([&, c] {
        const std::size_t size = static_cast<std::size_t>(n_small);
        std::vector<double> a(size, 1.5 + c);
        std::vector<double> b(size, 2.5 + c);
        std::vector<double> out(size);
        mz::SessionOptions opts;
        opts.serving = &ctx;
        mz::Session session(opts);
        mz::Session::Scope scope(session);
        for (int r = 0; r < rounds; ++r) {
          Pipeline(n_small, a.data(), b.data(), out.data());
          session.Evaluate();
          session.Reset();
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  };

  LoadedResult r;
  {
    mz::WallTimer timer;
    run_small_round(1);  // cold
    r.small_cold_evals_per_sec = static_cast<double>(small_clients) / timer.ElapsedSeconds();
  }
  {
    mz::WallTimer timer;
    run_small_round(kSmallRounds);  // warm, under load
    r.small_warm_evals_per_sec =
        static_cast<double>(small_clients) * kSmallRounds / timer.ElapsedSeconds();
  }
  for (std::thread& t : large) {
    t.join();
  }
  r.stats = ctx.AggregateStats();
  if (ctx.batcher() != nullptr) {
    r.batch_dispatches = ctx.batcher()->dispatches();
    r.batch_jobs = ctx.batcher()->jobs();
  }
  return r;
}

}  // namespace

int main() {
  mzvec::EnsureRegistered();
  const long n = bench::Scaled(kBaseElems);

  bench::Title("Serving throughput: concurrent sessions, cold vs. warm plan cache");
  bench::Note("pipeline: log1p/add/div over " + std::to_string(n) + " doubles per client; " +
              std::to_string(mz::NumLogicalCpus()) + " logical CPUs");

  std::printf("%8s %16s %16s %10s %10s %10s\n", "clients", "cold evals/s", "warm evals/s",
              "hit rate", "inline", "pooled");
  for (int clients : {1, 4, 16}) {
    SweepResult r = RunClients(clients, n);
    double lookups = static_cast<double>(r.stats.plan_cache_hits + r.stats.plan_cache_misses);
    double hit_rate =
        lookups > 0 ? static_cast<double>(r.stats.plan_cache_hits) / lookups : 0.0;
    std::printf("%8d %16.1f %16.1f %9.0f%% %10lld %10lld\n", clients, r.cold_evals_per_sec,
                r.warm_evals_per_sec, 100.0 * hit_rate,
                static_cast<long long>(r.stats.serial_evals),
                static_cast<long long>(r.stats.pooled_evals));
    const std::string cfg = "clients=" + std::to_string(clients);
    bench::Metric("concurrency", "sweep", cfg, "cold_evals_per_sec", r.cold_evals_per_sec);
    bench::Metric("concurrency", "sweep", cfg, "warm_evals_per_sec", r.warm_evals_per_sec);
    bench::Metric("concurrency", "sweep", cfg, "plan_cache_hit_rate", hit_rate);
    bench::Metric("concurrency", "sweep", cfg, "serial_evals",
                  static_cast<double>(r.stats.serial_evals));
    bench::Metric("concurrency", "sweep", cfg, "pooled_evals",
                  static_cast<double>(r.stats.pooled_evals));
  }

  bench::Title("Capped LRU plan cache (6 entries), skewed working set");
  bench::Note("16 clients x 6 rounds x (16 hot evals over 4 shared sizes + 1 one-off size); "
              "warm hit rate should approach the 16/17 ~ 94% hot fraction");
  {
    const long n_hot = bench::Scaled(1 << 14);
    CappedCacheResult r = RunCappedCache(/*num_clients=*/16, n_hot);
    std::printf("%8s %14s %12s\n", "policy", "warm hit rate", "evictions");
    std::printf("%8s %13.1f%% %12lld\n", "LRU", 100.0 * r.warm_hit_rate,
                static_cast<long long>(r.evictions));
    bench::Metric("concurrency", "capped_cache", "LRU", "warm_hit_rate", r.warm_hit_rate);
    bench::Metric("concurrency", "capped_cache", "LRU", "evictions",
                  static_cast<double>(r.evictions));
  }

  bench::Title("Loaded pool: small-plan throughput, fixed vs. adaptive admission");
  const long n_large = bench::Scaled(kBaseElems * 4);
  bench::Note("8 small clients (1024 elems) vs. 8 large clients (" + std::to_string(n_large) +
              " elems) congesting the pool; the adaptive gate pushes mid-size plans inline as "
              "queue depth climbs, and the collector coalesces small dispatches");
  std::printf("%22s %16s %16s %10s %14s %10s\n", "config", "cold evals/s", "warm evals/s",
              "batched", "large inline", "wait ms");
  struct Config {
    const char* name;
    bool adaptive;
    bool batching;
  };
  const std::int64_t small_total = 8 * (1 + 30);  // smalls are always inline-class
  for (const Config& cfg : {Config{"fixed", false, false}, Config{"adaptive", true, false},
                            Config{"adaptive+batching", true, true}}) {
    // n_small is deliberately NOT scaled: it must stay under the 2048-elem
    // base cutoff (inline-class) at every MOZART_BENCH_SCALE.
    LoadedResult r = RunLoaded(cfg.adaptive, cfg.batching, /*small_clients=*/8,
                               /*large_clients=*/8, /*n_small=*/1024, n_large);
    std::printf("%22s %16.1f %16.1f %10lld %14lld %10.2f\n", cfg.name,
                r.small_cold_evals_per_sec, r.small_warm_evals_per_sec,
                static_cast<long long>(r.stats.batched_evals),
                static_cast<long long>(r.stats.serial_evals - small_total),
                static_cast<double>(r.stats.admission_wait_ns) * 1e-6);
    bench::Metric("concurrency", "loaded_pool", cfg.name, "small_cold_evals_per_sec",
                  r.small_cold_evals_per_sec);
    bench::Metric("concurrency", "loaded_pool", cfg.name, "small_warm_evals_per_sec",
                  r.small_warm_evals_per_sec);
    bench::Metric("concurrency", "loaded_pool", cfg.name, "batched_evals",
                  static_cast<double>(r.stats.batched_evals));
    bench::Metric("concurrency", "loaded_pool", cfg.name, "large_inline",
                  static_cast<double>(r.stats.serial_evals - small_total));
    bench::Metric("concurrency", "loaded_pool", cfg.name, "admission_wait_ms",
                  static_cast<double>(r.stats.admission_wait_ns) * 1e-6);
    if (cfg.batching && r.batch_dispatches > 0) {
      bench::Note("batcher: " + std::to_string(r.batch_jobs) + " jobs in " +
                  std::to_string(r.batch_dispatches) + " dispatches");
    }
  }
  return 0;
}
