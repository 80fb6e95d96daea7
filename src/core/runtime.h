// The Mozart runtime: owns the dataflow graph, plans and executes it.
//
// One Runtime corresponds to one instance of the paper's Mozart runtime plus
// the graph-capturing half of libmozart. Wrapped functions (client.h)
// register calls against the *current* runtime — a thread-local that
// defaults to a process-wide instance and can be scoped with RuntimeScope,
// so applications, tests, and benchmarks can use isolated runtimes with
// different options (thread counts, pipelining ablation, pedantic mode).
#ifndef MOZART_CORE_RUNTIME_H_
#define MOZART_CORE_RUNTIME_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cancel.h"
#include "common/cpu.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/future.h"
#include "core/planner.h"
#include "core/registry.h"
#include "core/stats.h"
#include "core/task_graph.h"

namespace mz {

class AdmissionGate;
class BatchCollector;
class PlanCache;
class StreamSource;
struct StreamOptions;

struct RuntimeOptions {
  int num_threads = 0;              // 0 = number of logical CPUs
  bool pipeline = true;             // false = Table 4's "-pipe" ablation
  bool pedantic = false;            // §7.1 debugging mode
  std::int64_t batch_elems_override = 0;  // 0 = L2 heuristic (§5.2)
  // Work-stealing batch scheduling instead of the paper's default static
  // partitioning (§5.2 explicitly allows both; see ExecOptions).
  bool dynamic_scheduling = false;
  // Stage-boundary piece passing: when the planner proves the producing and
  // consuming stages agree on a buffer's split stream, the executor hands
  // the per-worker pieces across the boundary instead of merging and
  // re-splitting (ExecOptions::elide_boundaries). Off = the ablation that
  // merges at every stage exit, as the paper describes.
  bool elide_boundaries = true;
  // Inter-stage pipeline parallelism: run the planner's pipelineable
  // regions as one overlapped batch walk (batch i in stage k while batch
  // i-1 runs stage k+1). Off = every stage runs to completion before the
  // next starts (ExecOptions::pipeline_stages).
  bool pipeline_stages = true;

  // --- serving-layer wiring (session.h) — all non-owning, may be null ---
  // Execute on this pool instead of constructing a private one. The pool is
  // safe to share: RunOnAllWorkers calls from concurrent runtimes interleave
  // through one queue (thread_pool.h).
  ThreadPool* shared_pool = nullptr;
  // Reuse plans across evaluations (and across sessions sharing the cache).
  PlanCache* plan_cache = nullptr;
  // Token gate bounding concurrent use of the shared pool.
  AdmissionGate* admission = nullptr;
  // Identity this runtime's Acquire calls present to the gate's per-session
  // round-robin (admission.h): sessions sharing an id share one rotation
  // slot (a multi-connection tenant), id 0 is the shared anonymous slot.
  // Weight = admissions earned per rotation round while backlogged.
  std::uint64_t admission_session = 0;
  int admission_weight = 1;
  // Per-tenant rate quota (> 0 enables): installs a token bucket for
  // admission_session on the gate; every evaluation (inline, batched, or
  // pooled) debits one token, and an empty bucket rejects with
  // OverloadError{retry_after_us} before any planning-adjacent work runs.
  // Tenants sharing an admission_session share one bucket (refcounted).
  double quota_evals_per_sec = 0.0;
  // Per-tenant byte quota (> 0 enables): like quota_evals_per_sec but
  // denominated in the PlanSizeEstimate byte model — every evaluation debits
  // its plan's estimated bytes after planning, so one tenant's few huge
  // plans and another's many small ones meter against the same unit. Plans
  // the estimator cannot size charge zero (the conservative direction is
  // taken by the inline/pooled decision instead, which treats them as
  // large). An empty bucket rejects with OverloadError{kQuota,
  // retry_after_us}; plans bigger than the burst admit at a full bucket and
  // leave it in debt (admission.h ChargeBytes).
  double quota_bytes_per_sec = 0.0;
  // Plans whose estimated parallel work is at or below this many elements
  // run inline on the calling thread instead of fanning out (only applies
  // when an admission gate is configured or the cutoff is > 0). An adaptive
  // admission gate overrides this with its congestion-scaled cutoff.
  std::int64_t serial_cutoff_elems = 0;
  // When set, inline-class plans are routed through the collector so several
  // sessions' small evaluations coalesce into one pool dispatch (batch.h).
  BatchCollector* batcher = nullptr;
};

// Per-evaluation options: the request-scoped half of the knob surface.
// RuntimeOptions configure a runtime for its lifetime; an EvalOptions rides
// one Evaluate call. The cancel token carries both the deadline and the
// explicit cancellation flag (cancel.h); outcomes surface as structured
// errors (OverloadError / DeadlineError / CancelledError) and are counted
// in EvalStats (shed/quota/deadline/cancelled).
struct EvalOptions {
  CancelToken cancel;
};

// How a captured argument binds to the dataflow graph.
struct ArgBinding {
  Value value;                        // empty when future-bound
  const void* ptr_key = nullptr;      // aliasing key for pointer arguments
  SlotId future_slot = kInvalidSlot;  // set when the argument is a Future
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // The runtime wrapped calls register against (thread-local override via
  // RuntimeScope, else the process default).
  static Runtime* Current();
  static Runtime& Default();

  // Opt-in: the options the lazily constructed process-default runtime will
  // be built with. Returns false (and changes nothing) once Default() has
  // already been constructed. Anything the options point at (shared pool,
  // plan cache, gate, batcher) must outlive the process — see
  // ServingContext::AdoptProcessDefault() for the serving-layer wrapper
  // that gives single-client apps plan caching for free.
  static bool SetDefaultOptions(const RuntimeOptions& opts);

  // Evaluates all captured-but-unexecuted nodes. Idempotent when nothing is
  // pending. Thread-compatible: capture and evaluation are serialized.
  void Evaluate();

  // Evaluate with request-scoped options. A deadline/cancellation stop or
  // an admission rejection throws (cancel.h) with the graph left intact and
  // un-executed-from `first_unexecuted`; the runtime stays reusable —
  // Reset() (or a later Evaluate retry, for elementwise pipelines that
  // overwrite their outputs) proceeds normally.
  void Evaluate(const EvalOptions& eval_opts);

  // Streaming entry point (stream.h): windows `source` per `opts` and, for
  // each window, invokes `body(window, firing_index)` with this runtime
  // current, evaluates whatever the body captured, and resets the graph so
  // per-firing state never accumulates. The body must not let Futures
  // outlive its invocation (resolve or drop them before returning — Reset
  // enforces this); carry results across firings through values or a
  // StreamAccumulator instead. Equal-size windows fingerprint identically,
  // so with a plan cache wired up every steady-state firing instantiates the
  // first firing's template without touching the planner. Returns the number
  // of firings. Per-firing counters: window_firings, window_lag_ns.
  std::int64_t EvalStream(StreamSource& source, const StreamOptions& opts,
                          const std::function<void(const Value& window, std::int64_t firing)>& body);

  // Drops the captured graph and all slots. Outstanding Futures must have
  // been dropped (checked). Statistics are preserved; use stats().Reset().
  void Reset();

  const RuntimeOptions& options() const { return opts_; }
  EvalStats& stats() { return stats_; }
  Registry& registry() { return *registry_; }
  ThreadPool& pool() { return *pool_; }
  PlanCache* plan_cache() { return opts_.plan_cache; }

  // Introspection (tests, benches).
  int num_pending_nodes();
  int num_captured_nodes();
  std::vector<Edge> ComputeEdges();
  TaskGraph& graph_for_test() { return graph_; }

  // Hooks for the lazy heap (§4.1): before evaluation the heap must
  // unprotect pages so workers can touch user memory; after each capture it
  // re-protects so subsequent raw reads fault and force evaluation.
  void set_pre_evaluate_hook(std::function<void()> hook);
  void set_post_capture_hook(std::function<void()> hook);

  // --- capture API (used by Annotated<> wrappers; not user-facing) ---

  template <typename R, typename... Params, typename... CallArgs>
  auto CaptureCall(std::shared_ptr<const Annotation> ann, std::shared_ptr<const FuncBase> fn,
                   CallArgs&&... cargs);

  // Registers a node; returns the return-value slot or kInvalidSlot.
  SlotId RegisterNode(std::shared_ptr<const Annotation> ann, std::shared_ptr<const FuncBase> fn,
                      std::vector<ArgBinding> bindings, bool has_ret);

 private:
  friend Value internal::ResolveSlotValue(Runtime*, SlotId);
  friend void internal::AddExternalRef(Runtime*, SlotId);
  friend void internal::DropExternalRef(Runtime*, SlotId);
  friend bool internal::SlotIsPending(Runtime*, SlotId);

  void EvaluateLocked(const EvalOptions& eval_opts);
  // The body; EvaluateLocked wraps it to count request-lifecycle outcomes.
  void EvaluateLockedImpl(const EvalOptions& eval_opts);
  ThreadPool* SerialPool();  // lazily-built 1-thread inline pool (admission)

  RuntimeOptions opts_;
  Registry* registry_;
  std::unique_ptr<ThreadPool> owned_pool_;   // null when using a shared pool
  ThreadPool* pool_ = nullptr;               // owned_pool_ or opts_.shared_pool
  std::unique_ptr<ThreadPool> serial_pool_;  // created on first inline eval
  std::recursive_mutex mu_;
  TaskGraph graph_;
  EvalStats stats_;
  bool evaluating_ = false;
  bool quota_installed_ = false;       // this runtime holds a SetQuota reference
  bool byte_quota_installed_ = false;  // ... and/or a SetByteQuota reference
  std::function<void()> pre_evaluate_hook_;
  std::function<void()> post_capture_hook_;
};

// RAII override of the current runtime for the constructing thread.
class RuntimeScope {
 public:
  explicit RuntimeScope(Runtime* runtime);
  ~RuntimeScope();
  RuntimeScope(const RuntimeScope&) = delete;
  RuntimeScope& operator=(const RuntimeScope&) = delete;

 private:
  Runtime* previous_;
};

namespace internal {

template <typename Param, typename CallArg>
ArgBinding BindOneArg(Runtime* rt, CallArg&& arg) {
  using A = std::decay_t<CallArg>;
  if constexpr (IsFuture<A>::value) {
    MZ_THROW_IF(arg.runtime() != rt, "Future passed to a wrapper bound to a different runtime");
    ArgBinding b;
    b.future_slot = arg.slot();
    return b;
  } else {
    using D = std::decay_t<Param>;
    ArgBinding b;
    if constexpr (std::is_pointer_v<D>) {
      // Store pointers const-stripped so a buffer read through `const T*` by
      // one call and written through `T*` by another shares one slot type;
      // the SA's `mut` flag — not C++ constness — is the mutation authority.
      using Store = std::remove_const_t<std::remove_pointer_t<D>>*;
      Store v = const_cast<Store>(static_cast<D>(std::forward<CallArg>(arg)));
      b.ptr_key = reinterpret_cast<const void*>(v);
      b.value = Value::Make<Store>(v);
    } else {
      D v = static_cast<D>(std::forward<CallArg>(arg));
      b.value = Value::Make<D>(std::move(v));
    }
    return b;
  }
}

}  // namespace internal

template <typename R, typename... Params, typename... CallArgs>
auto Runtime::CaptureCall(std::shared_ptr<const Annotation> ann,
                          std::shared_ptr<const FuncBase> fn, CallArgs&&... cargs) {
  static_assert(sizeof...(Params) == sizeof...(CallArgs));
  std::vector<ArgBinding> bindings;
  bindings.reserve(sizeof...(Params));
  (bindings.push_back(internal::BindOneArg<Params>(this, std::forward<CallArgs>(cargs))), ...);
  constexpr bool kHasRet = !std::is_void_v<R>;
  SlotId ret = RegisterNode(std::move(ann), std::move(fn), std::move(bindings), kHasRet);
  if constexpr (kHasRet) {
    return Future<std::decay_t<R>>(this, ret);
  } else {
    (void)ret;
  }
}

}  // namespace mz

#endif  // MOZART_CORE_RUNTIME_H_
