// Concurrent serving layer: per-client Sessions over shared infrastructure.
//
// The paper's runtime (§5) plans and executes one dataflow for one client.
// To serve many concurrent clients, Mozart splits that state in two:
//
//  * per-client: a Session owns its Runtime — task graph, pending slots,
//    futures, and per-session stats. Two sessions never contend on graph
//    state; capture and evaluation lock only the session's own mutex.
//  * shared, read-mostly: the split-type Registry (shared_mutex,
//    registry.h), the PlanCache (plan_cache.h), one executor ThreadPool,
//    and the AdmissionGate that rations it (admission.h). A ServingContext
//    bundles these; the process-default context serves sessions that do not
//    bring their own.
//
// Typical server loop, one thread per client:
//
//   mz::Session session;                   // joins ServingContext::Default()
//   mz::Session::Scope scope(session);     // wrapped calls capture here
//   mzvec::Mul(n, a, b, tmp);              // ... captured lazily ...
//   session.Evaluate();                    // or let a Future force it
//
// Repeated pipelines hit the shared plan cache (skipping Planner::Plan);
// small plans run inline on the client's thread; large ones take an
// admission token so the pool never oversubscribes.
#ifndef MOZART_CORE_SESSION_H_
#define MOZART_CORE_SESSION_H_

#include <memory>
#include <mutex>
#include <unordered_set>

#include "common/thread_pool.h"
#include "core/admission.h"
#include "core/batch.h"
#include "core/plan_cache.h"
#include "core/runtime.h"
#include "core/stats.h"

namespace mz {

struct ServingOptions {
  int pool_threads = 0;       // executor pool width; 0 = logical CPUs
  int max_pool_sessions = 2;  // admission tokens: evaluations on the pool at once
  // Evaluations whose estimated parallel work is at or below this many
  // elements run inline on the client's thread (admission.h).
  std::int64_t serial_cutoff_elems = 4096;
  std::size_t plan_cache_entries = 1024;
  // Byte budget for an owned plan cache (0 = entry count only); ignored
  // when `plan_cache` overrides the cache.
  std::size_t plan_cache_bytes = 0;
  PlanCache* plan_cache = nullptr;  // non-owning override; null = private cache
  // Queue-depth-adaptive admission (admission.h): the gate shrinks its token
  // budget and grows the inline cutoff as the shared pool congests. Zeros in
  // the tuning are derived: max_tokens from max_pool_sessions, the cutoff
  // range from serial_cutoff_elems (base) and 16x that (max).
  bool adaptive_admission = false;
  AdmissionOptions admission_tuning{.max_tokens = 0, .base_cutoff_elems = 0,
                                    .max_cutoff_elems = 0};
  // Cross-session micro-batching (batch.h): > 0 coalesces inline-class plans
  // into one pool dispatch. A leader waits at most this long, and only as
  // long as the inter-arrival EWMA predicts a rider, so a lone client never
  // pays the window.
  std::int64_t batch_window_us = 0;
  int batch_max_plans = 8;
};

class Session;

// Shared executor pool + plan cache + admission gate + aggregate statistics.
// Thread-safe; outlives the Sessions constructed against it.
class ServingContext {
 public:
  explicit ServingContext(ServingOptions opts = {});
  ~ServingContext();

  ServingContext(const ServingContext&) = delete;
  ServingContext& operator=(const ServingContext&) = delete;

  // Process-wide default (machine-sized pool, global plan cache).
  static ServingContext& Default();

  const ServingOptions& options() const { return opts_; }
  ThreadPool& pool() { return *pool_; }
  PlanCache& plan_cache() { return *plan_cache_; }
  AdmissionGate& admission() { return *admission_; }
  BatchCollector* batcher() { return batcher_.get(); }  // null unless windowed

  // Opt-in for single-client apps: wires THIS context's pool, plan cache,
  // admission gate, and batcher into the options the process-default
  // Runtime (Runtime::Default()) will be built with, so plain wrapped calls
  // outside any Session get plan caching for free. Returns false once the
  // default runtime already exists. The context must outlive the process —
  // typically this is called on ServingContext::Default() or on a context
  // that is deliberately leaked.
  bool AdoptProcessDefault();

  // Stats aggregated across every session ever bound to this context:
  // retired sessions' totals plus a live snapshot of the current ones.
  EvalStats::Snapshot AggregateStats();

  int num_live_sessions();

  // Graceful drain (ISSUE 10): stops admitting new evaluations (they throw
  // OverloadError{kDraining}; queued admission waiters are woken and
  // rejected the same way), flushes the batch collector so no leader sleeps
  // out a window for riders that will never come, then waits for in-flight
  // pooled work to retire (in_use() and waiting() both zero). `deadline_ns`
  // is an absolute NowNanos() deadline (0 = wait indefinitely); returns
  // true when the gate quiesced, false when the deadline hit first — either
  // way the gate stays draining, so the context winds down monotonically
  // and a second Drain call is an idempotent re-wait. Inline evaluations
  // run on their callers' threads and are not awaited here; joining client
  // threads (which drain rejections unblock promptly) completes shutdown.
  bool Drain(std::int64_t deadline_ns = 0);
  bool draining() const { return admission_->draining(); }

 private:
  friend class Session;
  void Register(Session* session);
  void Unregister(Session* session);  // folds the session's stats into retired_

  ServingOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<PlanCache> owned_plan_cache_;  // null when opts_.plan_cache set
  PlanCache* plan_cache_;
  std::unique_ptr<AdmissionGate> admission_;
  std::unique_ptr<BatchCollector> batcher_;  // null when batch_window_us == 0

  std::mutex sessions_mu_;
  std::unordered_set<Session*> sessions_;
  EvalStats retired_;  // accumulated stats of destroyed sessions
};

struct SessionOptions {
  // Per-session runtime knobs. shared_pool / plan_cache / admission /
  // serial_cutoff_elems / batcher are overwritten with the serving context's
  // wiring; num_threads is ignored (the pool is shared). The admission
  // identity and quotas are the fields below: setting admission_session,
  // admission_weight or quota_{evals,bytes}_per_sec here throws mz::Error.
  RuntimeOptions runtime;
  ServingContext* serving = nullptr;  // null = ServingContext::Default()
  // Identity for the gate's per-session round-robin. 0 = auto-assign a
  // fresh id (each Session is its own rotation slot); a server modeling
  // multi-connection tenants passes one shared id per tenant so all of a
  // tenant's connections together earn one slot's worth of admissions.
  std::uint64_t admission_session = 0;
  int admission_weight = 1;
  // Per-session rate limit, enforced at the shared gate before any other
  // admission work (admission.h quotas): every evaluation — inline, batched,
  // or pooled — debits one token; an empty bucket throws OverloadError
  // (kQuota) carrying retry_after_us. Sessions sharing an admission_session
  // id share the bucket (tenant-wide rate). 0 = unlimited.
  double quota_evals_per_sec = 0.0;
  // Per-session byte-rate limit over the PlanSizeEstimate byte model: every
  // evaluation debits its plan's estimated bytes, so tenants are metered by
  // how much data they push through the runtime, not just how often they
  // call it. Same refcounted tenant-bucket sharing and OverloadError{kQuota,
  // retry_after_us} rejection as quota_evals_per_sec. 0 = unlimited.
  double quota_bytes_per_sec = 0.0;
};

// One client's handle on the runtime. Cheap to construct; owns an isolated
// task graph. Sessions are externally synchronized per client (one client
// thread per session at a time), like the Runtime they wrap; *different*
// sessions are safe to use from different threads concurrently.
class Session {
 public:
  explicit Session(SessionOptions opts = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Runtime& runtime() { return *runtime_; }
  ServingContext& serving() { return *serving_; }
  EvalStats& stats() { return runtime_->stats(); }

  void Evaluate() { runtime_->Evaluate(); }
  // Deadline/cancellation-aware evaluation: see Runtime::EvalOptions. A
  // throw (CancelledError, DeadlineError, OverloadError, fault) leaves the
  // session reusable — Reset() and evaluate again.
  void Evaluate(const EvalOptions& eval_opts) { runtime_->Evaluate(eval_opts); }
  void Reset() { runtime_->Reset(); }

  // RAII binding: wrapped calls on the constructing thread capture into this
  // session until the Scope is destroyed (wraps RuntimeScope).
  class Scope {
   public:
    explicit Scope(Session& session) : scope_(&session.runtime()) {}

   private:
    RuntimeScope scope_;
  };

 private:
  ServingContext* serving_;
  std::unique_ptr<Runtime> runtime_;
};

}  // namespace mz

#endif  // MOZART_CORE_SESSION_H_
