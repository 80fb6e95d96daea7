// Serving-hardening battery for the admission gate (core/admission.h):
//
//  * deterministic starvation tests — a sparse session queued behind a
//    chatty neighbor's backlog is admitted within one rotation under
//    weighted deficit round-robin, however deep the backlog;
//  * weighted service: a weight-2 session earns two admissions per round;
//  * EWMA time-decay regression — a congestion burst's shrunk budget
//    recovers after an idle gap;
//  * streaming inline regression — steady-state EvalStream firings of a
//    tiny window run on the caller even when later stages consume pending
//    intermediates (pre-fix those plans were unsizable, so every firing
//    burned a pool token);
//  * one size model: the inline/pooled decision is bytes-denominated, so a
//    wide-row frame pools where a same-row-count double column inlines.
//
// Ordering tests sequence contention with AdmissionGate::waiting() instead
// of sleeps, so they are deterministic under any scheduler; the churn test
// at the end is the TSan-facing stress (completion is the assertion).
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/admission.h"
#include "core/runtime.h"
#include "core/stream.h"
#include "dataframe/annotated.h"
#include "vecmath/annotated.h"

namespace {

using df::Column;
using df::DataFrame;
using Vec = std::vector<double>;

mz::AdmissionOptions Tuning() {
  mz::AdmissionOptions t;
  t.min_tokens = 1;
  t.max_tokens = 4;
  t.base_cutoff_elems = 1000;
  t.max_cutoff_elems = 100000;
  t.ewma_alpha = 0.5;
  t.congested_depth = 8.0;
  return t;
}

// Queues `chatty` waiters under session 1, then one sparse waiter under
// session 2, behind a held token; releases the token and returns the sparse
// waiter's position in the admission order (0-based). waiting() sequences
// every enqueue, so arrival order — and with it the admission order — is
// fully deterministic.
int SparseAdmissionIndex(int chatty) {
  mz::AdmissionGate gate(/*tokens=*/1);
  mz::AdmissionGate::Ticket held = gate.Acquire(/*session=*/77);

  std::mutex order_mu;
  std::vector<std::uint64_t> order;
  std::vector<std::thread> threads;
  auto contender = [&gate, &order_mu, &order](std::uint64_t sid) {
    mz::AdmissionGate::Ticket t = gate.Acquire(sid);
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(sid);
  };  // ticket released here: the next admission happens after the record

  for (int i = 0; i < chatty; ++i) {
    threads.emplace_back(contender, /*sid=*/1);
    while (gate.waiting() < i + 1) std::this_thread::yield();
  }
  threads.emplace_back(contender, /*sid=*/2);
  while (gate.waiting() < chatty + 1) std::this_thread::yield();

  held.Release();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(order.size(), static_cast<std::size_t>(chatty) + 1);
  EXPECT_EQ(gate.waiting(), 0);
  EXPECT_EQ(gate.in_use(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 2) return static_cast<int>(i);
  }
  ADD_FAILURE() << "sparse session never admitted";
  return -1;
}

TEST(AdmissionFairnessTest, DrrAdmitsSparseSessionWithinOneRound) {
  // Round-robin: the chatty session spends its one-admission turn, then the
  // sparse session is next — position 1 no matter how deep the backlog.
  EXPECT_EQ(SparseAdmissionIndex(/*chatty=*/8), 1);
  EXPECT_EQ(SparseAdmissionIndex(/*chatty=*/24), 1);
}

TEST(AdmissionFairnessTest, WeightTwoSessionEarnsTwoAdmissionsPerRound) {
  mz::AdmissionGate gate(/*tokens=*/1);
  mz::AdmissionGate::Ticket held = gate.Acquire(/*session=*/77);

  std::mutex order_mu;
  std::vector<std::uint64_t> order;
  std::vector<std::thread> threads;
  auto contender = [&gate, &order_mu, &order](std::uint64_t sid, int weight) {
    mz::AdmissionGate::Ticket t = gate.Acquire(sid, weight);
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(sid);
  };

  const std::uint64_t kHeavy = 10, kLight = 20;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back(contender, kHeavy, /*weight=*/2);
    while (gate.waiting() < i + 1) std::this_thread::yield();
  }
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back(contender, kLight, /*weight=*/1);
    while (gate.waiting() < 6 + i + 1) std::this_thread::yield();
  }

  held.Release();
  for (std::thread& t : threads) t.join();

  // Heavy's turn admits two per round even though tokens free one at a time
  // (the turn spans releases); once heavy drains, light's remainder flows.
  const std::vector<std::uint64_t> want = {kHeavy, kHeavy, kLight, kHeavy,
                                           kHeavy, kLight, kHeavy, kHeavy,
                                           kLight, kLight, kLight, kLight};
  EXPECT_EQ(order, want);
}

// --- S1 regression: budget recovery after a burst -----------------------------

TEST(AdmissionFairnessTest, EwmaDecayRestoresBudgetAfterIdleGap) {
  const mz::AdmissionOptions t = Tuning();
  mz::AdmissionGate gate(t);

  std::int64_t now = 1'000'000;  // synthetic clock, ns
  for (int i = 0; i < 20; ++i) {
    gate.ObserveAtNanos(/*queue_depth=*/64, now);
    now += 1'000;  // 1 µs apart: negligible decay within the burst
  }
  EXPECT_EQ(gate.tokens(), t.min_tokens) << "burst must shrink the budget";
  EXPECT_EQ(gate.cutoff_elems(0), t.max_cutoff_elems);

  // The burst ends and the pool drains. The next observation arrives 40 ms
  // (20 of the gate's 2 ms half-lives) later: the stored depth must have
  // decayed to ~nothing, whatever happened to the sampling cadence in
  // between.
  gate.ObserveAtNanos(/*queue_depth=*/0, now + 40'000'000);
  EXPECT_EQ(gate.tokens(), t.max_tokens);
  EXPECT_EQ(gate.cutoff_elems(0), t.base_cutoff_elems);
}

// --- S2 regression: steady-state stream firings stay inline -------------------

TEST(AdmissionFairnessTest, TinyWindowStreamFiringsRunInline) {
  mzvec::EnsureRegistered();
  mzdf::EnsureRegistered();
  mz::RuntimeOptions o;
  o.num_threads = 4;
  o.pedantic = true;
  o.pipeline = false;  // stage per op: stage 2 consumes a pending intermediate
  o.serial_cutoff_elems = 4096;
  mz::Runtime rt(o);

  mz::StreamSource src;
  const long kWindow = 64, kFirings = 8;
  for (long c = 0; c < kFirings; ++c) {
    Vec v(static_cast<std::size_t>(kWindow));
    for (long i = 0; i < kWindow; ++i) {
      v[static_cast<std::size_t>(i)] = static_cast<double>(c * kWindow + i);
    }
    src.Push(mz::Value::Make<Column>(Column::Doubles(std::move(v))));
  }
  src.Close();

  std::int64_t firings =
      rt.EvalStream(src, {.window = kWindow}, [&](const mz::Value& win, std::int64_t firing) {
        // Future-chained ops: the second stage's split input is a slot with
        // no value at admission time. Pre-fix that made the plan unsizable,
        // so every steady-state firing of this 64-element window burned a
        // pool token; the estimate now inherits the window's bound.
        mz::Future<Column> t = mzdf::ColAddC(win.As<Column>(), 1.0);
        mz::Future<Column> u = mzdf::ColMulC(t, 2.0);
        Column out = u.get();
        ASSERT_EQ(out.size(), kWindow);
        EXPECT_EQ(out.d(0), 2.0 * (static_cast<double>(firing * kWindow) + 1.0));
      });
  EXPECT_EQ(firings, kFirings);

  mz::EvalStats::Snapshot s = rt.stats().Take();
  EXPECT_GT(s.evaluations, 0);
  EXPECT_EQ(s.serial_evals, s.evaluations) << "tiny windows must stay inline";
  EXPECT_EQ(s.pooled_evals, 0);
}

// --- S6: the inline/pooled decision is bytes-denominated ----------------------

TEST(AdmissionFairnessTest, WideRowsPoolWhereSameCountNarrowRowsInline) {
  mzvec::EnsureRegistered();
  mzdf::EnsureRegistered();
  const long kRows = 600;  // cutoff 1024 elems = 8 KiB at the nominal width

  auto run_narrow = [&] {
    mz::RuntimeOptions o;
    o.num_threads = 2;
    o.serial_cutoff_elems = 1024;
    mz::Runtime rt(o);
    mz::RuntimeScope scope(&rt);
    Vec v(static_cast<std::size_t>(kRows), 1.0);
    Column col = Column::Doubles(std::move(v));
    EXPECT_EQ(mzdf::ColAddC(col, 1.0).get().size(), kRows);
    return rt.stats().Take();
  };
  auto run_wide = [&] {
    mz::RuntimeOptions o;
    o.num_threads = 2;
    o.serial_cutoff_elems = 1024;
    mz::Runtime rt(o);
    mz::RuntimeScope scope(&rt);
    std::vector<std::string> names;
    std::vector<Column> cols;
    for (int c = 0; c < 8; ++c) {
      names.push_back("c" + std::to_string(c));
      cols.push_back(Column::Doubles(Vec(static_cast<std::size_t>(kRows), 1.0)));
    }
    DataFrame frame = DataFrame::Make(names, cols);
    EXPECT_EQ(mzdf::ColAddC(mzdf::ColFromFrame(frame, 0), 1.0).get().size(), kRows);
    return rt.stats().Take();
  };

  // 600 doubles = 4.8 KB <= the 8 KiB cutoff: inline. 600 rows x 64 B/row =
  // 38.4 KB of frame footprint: pooled class, even though the element count
  // is identical — an elems-only model would inline both.
  mz::EvalStats::Snapshot narrow = run_narrow();
  EXPECT_EQ(narrow.serial_evals, narrow.evaluations);
  mz::EvalStats::Snapshot wide = run_wide();
  EXPECT_EQ(wide.serial_evals, 0);
  EXPECT_GT(wide.evaluations, 0);
}

// --- TSan-facing churn: fairness machinery under real concurrency -------------

TEST(AdmissionFairnessTest, MixedSessionChurnCompletes) {
  mz::AdmissionOptions t = Tuning();
  mz::AdmissionGate gate(t);

  const int kSessions = 3, kThreadsPerSession = 4, kRounds = 30;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    for (int w = 0; w < kThreadsPerSession; ++w) {
      threads.emplace_back([&gate, s] {
        for (int r = 0; r < kRounds; ++r) {
          gate.Observe(static_cast<std::size_t>(r % 12));
          mz::AdmissionGate::Ticket ticket =
              gate.Acquire(static_cast<std::uint64_t>(s + 1), /*weight=*/s + 1);
          std::this_thread::yield();
        }
      });
    }
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(gate.in_use(), 0);
  EXPECT_EQ(gate.waiting(), 0);
}

}  // namespace
