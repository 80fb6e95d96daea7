// Figure 6: effect of batch size on Black Scholes (element = one double) and
// nBody (element = one matrix row), with the runtime's L2 heuristic choice
// marked.
//
// Paper shape: a U-curve — tiny batches pay per-batch overhead, huge batches
// stop fitting in cache and lose the pipelining benefit; the heuristic lands
// within ~10% of the best point.
//
// Extension: a footprint-blowup workload — a narrow producer stage (small
// per-element footprint → large batches) feeding a wide consumer stage
// across an elided boundary (many live arrays → carried batches at the
// producer's granularity would overflow L2 several times over). Footprint-
// aware per-stage batching re-batches the carried pieces to the consumer's
// size; the no-elision baseline merges and re-splits instead. Emits
// MOZART_BENCH_JSON metrics.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/cpu.h"
#include "core/client.h"
#include "core/runtime.h"
#include "vecmath/annotated.h"
#include "workloads/numerical.h"

namespace {

template <typename W>
void Sweep(const char* name, W* w, const std::vector<long>& batches,
           std::int64_t heuristic_batch) {
  std::printf("\n  %s (heuristic batch = %lld elements)\n", name,
              static_cast<long long>(heuristic_batch));
  double best = 1e100;
  std::vector<double> times;
  for (long batch : batches) {
    mz::RuntimeOptions opts;
    opts.batch_elems_override = batch;
    mz::Runtime rt(opts);
    double t = bench::TimeSeconds([&] { w->RunMozart(&rt); });
    times.push_back(t);
    best = std::min(best, t);
  }
  // Heuristic (auto) run for the marked point.
  mz::Runtime auto_rt;
  double t_auto = bench::TimeSeconds([&] { w->RunMozart(&auto_rt); });
  best = std::min(best, t_auto);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    std::printf("    batch %-10ld norm-runtime %5.2f\n", batches[i], times[i] / best);
  }
  std::printf("    batch auto(%-5lld) norm-runtime %5.2f   <-- heuristic (within %.0f%% of best)\n",
              static_cast<long long>(heuristic_batch), t_auto / best,
              100.0 * (t_auto / best - 1.0));
}

// ---- footprint blowup: narrow producer → wide consumer over one carry ----

const mz::Annotated<void(long)>& Tick() {
  static long sink = 0;
  static const mz::Annotated<void(long)> tick(
      [](long k) { sink += k; },
      mz::AnnotationBuilder("fig6.tick").Arg("k", mz::NoSplit()).Build());
  return tick;
}

struct FootprintBlowup {
  long n;
  int wide;
  int passes;
  std::vector<double> a, t, o;
  std::vector<std::vector<double>> b;

  FootprintBlowup(long n_in, int wide_in, int passes_in)
      : n(n_in), wide(wide_in), passes(passes_in) {
    a.assign(static_cast<std::size_t>(n), 1.000001);
    t.assign(static_cast<std::size_t>(n), 0.0);
    o.assign(static_cast<std::size_t>(n), 0.0);
    for (int k = 0; k < wide; ++k) {
      b.emplace_back(static_cast<std::size_t>(n), 1e-7 * (k + 1));
    }
  }

  void Run(mz::Runtime* rt) {
    mz::RuntimeScope scope(rt);
    // Stage A (narrow, ~16 B/elem): batches of ~|L2|/16 elements.
    mzvec::Copy(n, a.data(), t.data());
    Tick()(1);
    // Stage B (wide, ~(2+wide)×8 B/elem): t carries across the boundary
    // and the stage sweeps the whole b-set `passes` times, so every b[k]
    // is re-touched after (wide-1) other arrays' worth of traffic. With
    // the consumer's own footprint-derived batch that reuse distance fits
    // L2; at the producer's inherited granularity the batch working set is
    // several MB and every revisit streams from the outer levels — the
    // cache-thrash the per-stage model exists to avoid.
    mzvec::Add(n, t.data(), b[0].data(), o.data());
    for (int p = 0; p < passes; ++p) {
      for (int k = (p == 0 ? 1 : 0); k < wide; ++k) {
        mzvec::Add(n, o.data(), b[k].data(), o.data());
      }
    }
    rt->Evaluate();
  }
};

void RunFootprintBlowup(long n, int wide, int passes, int threads) {
  std::printf("\n  (c) footprint blowup — narrow producer (16 B/elem) -> wide consumer (%d B/elem)\n",
              (2 + wide) * 8);
  std::printf("      n=%ld passes=%d threads=%d\n", n, passes, threads);
  struct Config {
    const char* name;
    bool elide;
  };
  constexpr Config kConfigs[] = {
      {"-elide", false},           // merge + re-split: correct batch, boundary cost
      {"+elide,per-stage", true},  // re-batch carried pieces to the stage's size
  };
  const char* workload = "footprint-blowup";
  double base_seconds = 0;
  for (const Config& cfg : kConfigs) {
    mz::RuntimeOptions opts;
    opts.num_threads = threads;
    opts.elide_boundaries = cfg.elide;
    mz::Runtime rt(opts);
    FootprintBlowup w(n, wide, passes);
    w.Run(&rt);  // warm up (touches every page)
    rt.stats().Reset();
    // Median of 5: single-core containers jitter and the configs differ by
    // tens of ms, so the default 3 reps under-resolve the gap.
    double seconds = bench::TimeSeconds([&] { w.Run(&rt); }, /*reps=*/5);
    mz::EvalStats::Snapshot s = rt.stats().Take();
    if (base_seconds == 0) {
      base_seconds = seconds;
    }
    std::printf("      %-18s %8.4fs  norm %5.2f  rebatched %lld  footprint<=%lld KB\n", cfg.name,
                seconds, seconds / base_seconds, static_cast<long long>(s.stages_rebatched),
                static_cast<long long>(s.footprint_bytes_max / 1024));
    bench::Metric("fig6_footprint", workload, cfg.name, "seconds", seconds);
    bench::Metric("fig6_footprint", workload, cfg.name, "stages_rebatched",
                  static_cast<double>(s.stages_rebatched));
    bench::Metric("fig6_footprint", workload, cfg.name, "footprint_bytes_max",
                  static_cast<double>(s.footprint_bytes_max));
    bench::Metric("fig6_footprint", workload, cfg.name, "boundaries_elided",
                  static_cast<double>(s.boundaries_elided));
  }
}

}  // namespace

int main() {
  bench::Title("Figure 6: batch-size sweep (normalized runtime; lower is better)");
  std::printf("  L2 = %zu KB\n", mz::L2CacheBytes() / 1024);

  // Black Scholes: 12 arrays in flight, sized so each far exceeds the LLC —
  // the regime the batch-size trade-off is about (the paper runs 11 GB).
  workloads::BlackScholes bs(bench::Scaled(16 << 20), 1);
  std::int64_t bs_heur = static_cast<std::int64_t>(mz::L2CacheBytes()) / (12 * 8);
  Sweep("(a) Black Scholes — element = 1 double", &bs,
        {512, 2048, 8192, 32768, 131072, 524288, 2097152, 8388608}, bs_heur);

  // nBody: elements are matrix rows of n doubles (n = 2048 → 16 KB rows).
  const long n = bench::Scaled(2048);
  workloads::NBody nb(n, 1, 3);
  std::int64_t nb_heur = static_cast<std::int64_t>(mz::L2CacheBytes()) /
                         (6 * n * static_cast<long>(sizeof(double)));
  Sweep("(b) nBody — element = 1 matrix row", &nb, {1, 4, 16, 64, 256, 1024, 2048},
        std::max<std::int64_t>(nb_heur, 1));

  // (c) the ISSUE 5 workload: small input elements, wide consumer rows —
  // global vs. per-stage batching across an elided boundary.
  RunFootprintBlowup(bench::Scaled(4 << 20), /*wide=*/12, /*passes=*/4, mz::NumLogicalCpus());
  return 0;
}
