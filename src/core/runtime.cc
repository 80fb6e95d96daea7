#include "core/runtime.h"

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/admission.h"
#include "core/batch.h"
#include "core/plan_cache.h"
#include "core/stream.h"

namespace mz {
namespace {

thread_local Runtime* g_current_runtime = nullptr;

// Options for the lazily built process-default runtime (SetDefaultOptions).
std::mutex g_default_options_mu;
bool g_default_built = false;
RuntimeOptions& DefaultOptionsStorage() {
  static RuntimeOptions* opts = new RuntimeOptions();
  return *opts;
}

}  // namespace

Runtime::Runtime(RuntimeOptions opts) : opts_(opts), registry_(&Registry::Global()) {
  if (opts_.shared_pool != nullptr) {
    pool_ = opts_.shared_pool;
    opts_.num_threads = pool_->num_threads();
  } else {
    int threads = opts_.num_threads > 0 ? opts_.num_threads : NumLogicalCpus();
    opts_.num_threads = threads;
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
  if (opts_.admission != nullptr && opts_.quota_evals_per_sec > 0.0) {
    opts_.admission->SetQuota(opts_.admission_session, opts_.quota_evals_per_sec);
    quota_installed_ = true;
  }
  if (opts_.admission != nullptr && opts_.quota_bytes_per_sec > 0.0) {
    opts_.admission->SetByteQuota(opts_.admission_session, opts_.quota_bytes_per_sec);
    byte_quota_installed_ = true;
  }
}

Runtime::~Runtime() {
  if (quota_installed_) {
    opts_.admission->DropQuota(opts_.admission_session);
  }
  if (byte_quota_installed_) {
    opts_.admission->DropByteQuota(opts_.admission_session);
  }
}

ThreadPool* Runtime::SerialPool() {
  if (serial_pool_ == nullptr) {
    serial_pool_ = std::make_unique<ThreadPool>(1);  // worker 0 runs inline
  }
  return serial_pool_.get();
}

Runtime& Runtime::Default() {
  static Runtime* runtime = [] {
    std::lock_guard<std::mutex> lock(g_default_options_mu);
    g_default_built = true;
    return new Runtime(DefaultOptionsStorage());
  }();
  return *runtime;
}

bool Runtime::SetDefaultOptions(const RuntimeOptions& opts) {
  std::lock_guard<std::mutex> lock(g_default_options_mu);
  if (g_default_built) {
    return false;
  }
  DefaultOptionsStorage() = opts;
  return true;
}

Runtime* Runtime::Current() {
  return g_current_runtime != nullptr ? g_current_runtime : &Default();
}

void Runtime::set_pre_evaluate_hook(std::function<void()> hook) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  pre_evaluate_hook_ = std::move(hook);
}

void Runtime::set_post_capture_hook(std::function<void()> hook) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  post_capture_hook_ = std::move(hook);
}

SlotId Runtime::RegisterNode(std::shared_ptr<const Annotation> ann,
                             std::shared_ptr<const FuncBase> fn, std::vector<ArgBinding> bindings,
                             bool has_ret) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  MZ_THROW_IF(evaluating_, "cannot capture a call while the runtime is evaluating (annotated "
                           "functions must not call other annotated functions)");
  ScopedAccumTimer timer(&stats_.client_ns);

  std::vector<SlotId> slots;
  slots.reserve(bindings.size());
  for (ArgBinding& b : bindings) {
    if (b.future_slot != kInvalidSlot) {
      // A slot holding lazily parked boundary pieces (merge-on-get) is
      // re-entering the dataflow: planner and fingerprint read slot values,
      // so merge now.
      ResolveDeferredMerge(graph_.slot(b.future_slot));
      slots.push_back(b.future_slot);
    } else if (b.ptr_key != nullptr) {
      slots.push_back(graph_.SlotForPointer(b.ptr_key, b.value));
    } else {
      slots.push_back(graph_.NewValueSlot(b.value));
    }
  }
  int node = graph_.AddNode(std::move(ann), std::move(fn), std::move(slots), has_ret);
  SlotId ret = graph_.nodes()[static_cast<std::size_t>(node)].ret;

  if (post_capture_hook_) {
    post_capture_hook_();
  }
  return ret;
}

void Runtime::Evaluate() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  EvaluateLocked(EvalOptions{});
}

void Runtime::Evaluate(const EvalOptions& eval_opts) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  EvaluateLocked(eval_opts);
}

void Runtime::EvaluateLocked(const EvalOptions& eval_opts) {
  // Count request-lifecycle outcomes here, at the one choke point every
  // evaluation passes, instead of at each throw site. Rethrows unchanged:
  // the structured error IS the client-visible backpressure signal.
  try {
    EvaluateLockedImpl(eval_opts);
  } catch (const OverloadError& e) {
    auto& counter = e.kind == OverloadError::Kind::kQuota      ? stats_.quota_rejects
                    : e.kind == OverloadError::Kind::kDraining ? stats_.drained_evals
                                                               : stats_.shed_evals;
    counter.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (const DeadlineError&) {
    stats_.deadline_evals.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (const CancelledError&) {
    stats_.cancelled_evals.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

void Runtime::EvaluateLockedImpl(const EvalOptions& eval_opts) {
  int first = graph_.first_unexecuted();
  int end = graph_.num_nodes();
  if (first == end) {
    return;
  }
  MZ_THROW_IF(evaluating_, "re-entrant evaluation");
  // Checked before any state transition: a request cancelled (or already
  // past its deadline) on arrival leaves the pending range untouched, so a
  // later Evaluate — or Reset — sees the graph exactly as captured.
  eval_opts.cancel.ThrowIfStopped("evaluate");
  evaluating_ = true;
  struct ClearFlag {
    bool* flag;
    ~ClearFlag() { *flag = false; }
  } clear{&evaluating_};

  if (pre_evaluate_hook_) {
    pre_evaluate_hook_();  // lazy heap: unprotect before workers touch memory
  }

  // Plan — through the cache when one is wired up. Fingerprinting, lookup,
  // and template instantiation all count as planner time, so Fig. 5's
  // breakdown shows exactly what the cache saves.
  Plan plan;
  {
    ScopedAccumTimer timer(&stats_.planner_ns);
    bool cached = false;
    RangeFingerprint fp;
    if (opts_.plan_cache != nullptr) {
      MZ_FAULT("plan_cache.lookup");
      fp = FingerprintRange(graph_, *registry_, first, end, opts_.pipeline);
      if (std::shared_ptr<const Plan> tmpl = opts_.plan_cache->Lookup(fp.key)) {
        plan = InstantiatePlan(*tmpl, fp.canon_slots, first);
        stats_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
        cached = true;
      }
    }
    if (!cached) {
      Planner planner(graph_, *registry_, opts_.pipeline);
      plan = planner.Build(first, end);
      stats_.plans_built.fetch_add(1, std::memory_order_relaxed);
      if (opts_.plan_cache != nullptr) {
        stats_.plan_cache_misses.fetch_add(1, std::memory_order_relaxed);
        // A registration between the fingerprint and Build would bake
        // new-registry ctor results into a plan filed under the old-version
        // key; skip the insert and let the next evaluation re-key.
        if (registry_->version() == fp.registry_version) {
          PlanCacheInsertOutcome outcome = opts_.plan_cache->Insert(
              fp.key, MakePlanTemplate(plan, fp.canon_slots, first), std::move(fp.pins));
          stats_.plan_cache_bytes_inserted.fetch_add(
              static_cast<std::int64_t>(outcome.inserted_bytes), std::memory_order_relaxed);
          stats_.plan_cache_evictions.fetch_add(
              static_cast<std::int64_t>(outcome.evicted_entries), std::memory_order_relaxed);
          stats_.plan_cache_bytes_evicted.fetch_add(
              static_cast<std::int64_t>(outcome.evicted_bytes), std::memory_order_relaxed);
          EvalStats::MaxInto(stats_.plan_cache_true_bytes,
                             static_cast<std::int64_t>(outcome.resident_bytes));
        }
      }
    }
  }

  ExecOptions exec_opts;
  exec_opts.batch_override = opts_.batch_elems_override;
  exec_opts.l2_bytes = L2CacheBytes();
  exec_opts.pedantic = opts_.pedantic;
  exec_opts.dynamic_scheduling = opts_.dynamic_scheduling;
  exec_opts.elide_boundaries = opts_.elide_boundaries;
  exec_opts.pipeline_stages = opts_.pipeline_stages;
  exec_opts.cancel = eval_opts.cancel;

  // Admission (see admission.h): small plans stay on the calling thread —
  // or coalesce with other sessions' small plans through the BatchCollector
  // — while large ones hold a token for the shared pool. An adaptive gate
  // is fed the pool's queue depth and supplies a congestion-scaled cutoff.
  {
    AdmissionGate* gate = opts_.admission;
    if (gate != nullptr) {
      // Quota is charged before the inline/pooled split so every eval class
      // counts against the session's rate, and before any queueing so a
      // throttled session never occupies gate state. Throws OverloadError
      // (kQuota) with the refill time when the bucket is empty.
      gate->ChargeQuota(opts_.admission_session);
    }
    if (gate != nullptr && gate->adaptive()) {
      gate->Observe(pool_->queue_depth());
    }
    ThreadPool* exec_pool = pool_;
    AdmissionGate::Ticket ticket;
    bool batched = false;
    bool pooled = false;
    if (gate != nullptr || opts_.serial_cutoff_elems > 0) {
      const std::int64_t cutoff =
          gate != nullptr ? gate->cutoff_elems(opts_.serial_cutoff_elems)
                          : opts_.serial_cutoff_elems;
      // One size model for both consumers of plan size: the inline/pooled
      // decision here compares the same bytes-denominated estimate the
      // cache budget charges, with the elems cutoff converted at the
      // nominal stream width (8-byte doubles/int64s keep their meaning).
      const PlanSizeEstimate est = EstimatePlanSize(plan, graph_, *registry_);
      // Byte quota is charged once the plan's bytes are known (the same
      // estimate the inline/pooled split below compares), before any
      // queueing, so a byte-throttled tenant never occupies gate state.
      // Unsized plans charge nothing: the estimator's conservative
      // direction is already taken by the pooled path below.
      if (gate != nullptr && est.sized) {
        gate->ChargeBytes(opts_.admission_session, est.bytes);
      }
      if (est.sized && est.bytes <= cutoff * kNominalElemBytes) {
        exec_pool = SerialPool();
        batched = opts_.batcher != nullptr;
        stats_.serial_evals.fetch_add(1, std::memory_order_relaxed);
      } else if (gate != nullptr) {
        std::int64_t t0 = NowNanos();
        ticket = gate->Acquire(opts_.admission_session, opts_.admission_weight,
                               eval_opts.cancel);
        stats_.admission_wait_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
        // Cancelled while queued but granted anyway (the grant/cancel race
        // lands on the grant side): give the token straight back via the
        // ticket's unwind rather than burning it on work nobody wants.
        eval_opts.cancel.ThrowIfStopped("post-admission");
        stats_.pooled_evals.fetch_add(1, std::memory_order_relaxed);
        pooled = true;
      }
    }
    if (batched) {
      // exec_pool is this runtime's 1-thread inline pool, so the job runs
      // the whole plan serially on whichever worker claims it; the caller
      // blocks in Run until its results are visible (batch.h).
      stats_.batched_evals.fetch_add(1, std::memory_order_relaxed);
      opts_.batcher->Run(
          [&] {
            Executor executor(&graph_, registry_, exec_pool, exec_opts, &stats_);
            executor.Run(plan);
          },
          &stats_, eval_opts.cancel.deadline_ns());
    } else {
      Executor executor(&graph_, registry_, exec_pool, exec_opts, &stats_);
      executor.Run(plan);
    }
    // Re-observe as pooled work retires, not just as it arrives: an
    // entry-only EWMA would hold a burst's shrunk budget / raised cutoff
    // for as long as the pool afterwards sat idle (no evaluations = no
    // samples). Paired with the gate's time-decay, the budget recovers
    // with the drain instead of freezing at the burst's peak.
    if (pooled && gate->adaptive()) {
      gate->Observe(pool_->queue_depth());
    }
  }

  graph_.MarkExecuted(end);
  stats_.evaluations.fetch_add(1, std::memory_order_relaxed);
  MZ_LOG(Debug) << "evaluated nodes [" << first << ", " << end << ") in " << plan.stages.size()
                << " stage(s)";
}

std::int64_t Runtime::EvalStream(
    StreamSource& source, const StreamOptions& opts,
    const std::function<void(const Value& window, std::int64_t firing)>& body) {
  RuntimeScope scope(this);  // the body's wrapped calls capture here
  Windower windower(&source, opts, registry_);
  std::int64_t firings = 0;
  for (;;) {
    // A firing boundary is the stream's cancellation point: results of
    // completed firings stay delivered, the current window is simply never
    // assembled. (In-flight firings also stop via the per-eval token below.)
    opts.cancel.ThrowIfStopped("stream firing boundary");
    std::optional<Value> window = windower.Next();
    if (!window.has_value()) {
      break;
    }
    // Lag is window-assembly to firing-completion: the latency a downstream
    // consumer of this firing's results observes. Source wait time (chunks
    // not yet pushed) is upstream slack, not runtime cost, and is excluded
    // by starting the clock after Next() returns.
    std::int64_t t0 = NowNanos();
    body(*window, firings);
    // A body that already forced evaluation (Future::get) leaves nothing
    // pending and this is a no-op; either way exactly one evaluation runs
    // per firing, so steady state stays plan_cache_hits == firings - 1.
    EvalOptions eo;
    eo.cancel = opts.cancel;
    Evaluate(eo);
    stats_.window_firings.fetch_add(1, std::memory_order_relaxed);
    stats_.window_lag_ns.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
    ++firings;
    Reset();  // throws if the body leaked a Future out of its scope
  }
  return firings;
}

void Runtime::Reset() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  MZ_THROW_IF(evaluating_, "cannot Reset while evaluating");
  for (std::size_t i = 0; i < graph_.num_slots(); ++i) {
    MZ_THROW_IF(graph_.slot(static_cast<SlotId>(i)).external_refs > 0,
                "Reset with outstanding Future handles");
  }
  graph_.Clear();
}

int Runtime::num_pending_nodes() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return graph_.num_nodes() - graph_.first_unexecuted();
}

int Runtime::num_captured_nodes() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return graph_.num_nodes();
}

std::vector<Edge> Runtime::ComputeEdges() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return graph_.ComputeEdges();
}

RuntimeScope::RuntimeScope(Runtime* runtime) : previous_(g_current_runtime) {
  g_current_runtime = runtime;
}

RuntimeScope::~RuntimeScope() { g_current_runtime = previous_; }

namespace internal {

Value ResolveSlotValue(Runtime* runtime, SlotId slot) {
  {
    std::lock_guard<std::recursive_mutex> lock(runtime->mu_);
    Slot& s = runtime->graph_.slot(slot);
    if (!s.pending) {
      ResolveDeferredMerge(s);  // lazy merge-on-get (stage-boundary elision)
      return s.value;
    }
  }
  runtime->Evaluate();
  std::lock_guard<std::recursive_mutex> lock(runtime->mu_);
  Slot& s = runtime->graph_.slot(slot);
  MZ_CHECK_MSG(!s.pending, "slot still pending after evaluation");
  ResolveDeferredMerge(s);
  return s.value;
}

bool SlotIsPending(Runtime* runtime, SlotId slot) {
  std::lock_guard<std::recursive_mutex> lock(runtime->mu_);
  return runtime->graph_.slot(slot).pending;
}

void AddExternalRef(Runtime* runtime, SlotId slot) {
  std::lock_guard<std::recursive_mutex> lock(runtime->mu_);
  runtime->graph_.slot(slot).external_refs++;
}

void DropExternalRef(Runtime* runtime, SlotId slot) {
  std::lock_guard<std::recursive_mutex> lock(runtime->mu_);
  // Tolerate Futures outliving a Reset(): Reset() refuses to run with live
  // handles, so an out-of-range id here means the graph was legitimately
  // rebuilt after this Future's runtime error-path destruction.
  if (slot < runtime->graph_.num_slots()) {
    runtime->graph_.slot(slot).external_refs--;
  }
}

}  // namespace internal

}  // namespace mz
