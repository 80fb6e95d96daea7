// Admission control for sessions sharing one executor ThreadPool.
//
// With N concurrent sessions and one machine-sized pool, letting every
// evaluation fan out across all workers collapses throughput: every session
// queues full-width stage dispatches behind every other one, and tiny plans
// pay handoff latency for parallelism they cannot use. The serving layer
// (session.h) therefore routes each evaluation through two decisions:
//
//  * small plans (estimated parallel work under a cutoff, or all-serial
//    plans) run entirely on the calling thread via a 1-thread inline pool —
//    no shared-pool traffic at all;
//  * large plans must hold one of a bounded number of tokens while they use
//    the shared pool, bounding the number of evaluations in flight on it.
//
// The gate comes in two modes. The *fixed* mode (the int constructor) is a
// plain counting semaphore. The *adaptive* mode feeds observed
// ThreadPool::queue_depth() samples through an EWMA and interpolates both
// policies against the smoothed load:
//
//  * the token budget shrinks from max_tokens toward min_tokens as the pool
//    congests — fewer full-width evaluations pile onto a backed-up queue;
//  * the inline-vs-pooled cutoff grows from base_cutoff_elems toward
//    max_cutoff_elems — under load, progressively larger plans run on their
//    caller instead of queuing behind someone else's full-width stages.
//
// Observations decay toward zero between samples (2 ms half-life), so a
// congestion burst's shrunk budget does not persist while the pool sits
// idle: the next Observe after a quiet period sees a discounted EWMA,
// whatever the sampling cadence was.
//
// Both responses are monotone in the smoothed depth and clamped to their
// configured ranges; min_tokens >= 1 guarantees large plans always admit
// eventually (no starvation). Tickets are RAII. Budget shrink never revokes
// held tickets — it only delays new admissions until the pool drains.
//
// Contended tokens are granted by per-session weighted deficit round-robin:
// each Acquire names a session id, waiters queue per session, and free
// tokens rotate across the sessions that have waiters, each session earning
// `weight` admissions per round. A sparse session's wait is therefore
// bounded by (sessions_waiting × hold time), independent of how deep a
// chatty neighbor's backlog is — where one arrival-order queue lets a flood
// from one session delay everyone behind it (Jain index 0.99 vs 0.75:
// loadgen_serving/fairness/*/jain_tenant_index, BENCH_PR10).
//
// Deadlines and backpressure (cancel.h): an Acquire carrying a CancelToken
// participates in three further policies.
//
//  * Load shedding: token hold times feed an EWMA; when the predicted wait
//    (backlog rounds × smoothed hold) already overshoots the request's
//    deadline, Acquire throws OverloadError{retry_after_us} immediately
//    instead of queueing — the structured backpressure signal. No hold
//    history = no prediction = no shedding (the request queues with a timed
//    wait instead).
//  * Timed waits: a queued waiter that reaches its deadline (or observes
//    Cancel()) removes itself from its queue and throws; the DRR rotation
//    and waiting() introspection stay exact, and "granted concurrently with
//    giving up" is impossible — grants and give-ups serialize on the gate
//    mutex, and the waiter re-checks `admitted` before withdrawing.
//  * Per-tenant quotas: SetQuota / SetByteQuota install a token bucket per
//    session id, denominated in evaluations or in bytes. ChargeQuota debits
//    one evaluation, ChargeBytes a plan's PlanSizeEstimate bytes; an empty
//    bucket throws OverloadError{retry_after_us}. One bucket implementation
//    serves both: a request bigger than the burst is admitted once the
//    bucket is full and driven into debt, so oversized-but-legitimate
//    requests still pace at the average rate instead of deadlocking.
//    Buckets are refcounted by Set*/Drop* so multi-connection tenants
//    sharing an id share one bucket.
//
// Graceful drain (ISSUE 10): BeginDrain() flips a terminal draining flag —
// every subsequent Acquire (and every waiter already queued, which is woken
// and withdrawn) throws OverloadError{kDraining}, while held tickets release
// normally so in_use() drains to zero. ServingContext::Drain sequences this
// with batch-collector flush and the quiescence wait.
#ifndef MOZART_CORE_ADMISSION_H_
#define MOZART_CORE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/cancel.h"
#include "core/planner.h"
#include "core/registry.h"
#include "core/task_graph.h"

namespace mz {

// Element width assumed when a plan's inputs expose element counts but no
// byte width (SizeSplit-style arithmetic splits). Also the unit converting a
// serial_cutoff_elems knob into the byte cutoff the admission decision uses,
// so "4096 elements" keeps meaning "one 32 KiB double/int64 stream".
inline constexpr std::int64_t kNominalElemBytes = 8;

// Tuning for the adaptive mode. Zeros mean "derive": the serving layer
// (session.h) fills base/max cutoffs from its serial_cutoff_elems and
// max_tokens from max_pool_sessions.
struct AdmissionOptions {
  int min_tokens = 1;  // floor under congestion; >= 1 or large plans starve
  int max_tokens = 2;  // budget when the pool is idle
  // Inline cutoff range (elements of estimated parallel work).
  std::int64_t base_cutoff_elems = 4096;    // idle pool
  std::int64_t max_cutoff_elems = 1 << 16;  // fully congested pool
  // EWMA weight of one new queue-depth observation, in (0, 1].
  double ewma_alpha = 0.25;
  // Smoothed queue depth treated as full congestion: at or beyond it the
  // token budget sits at min_tokens and the cutoff at max_cutoff_elems.
  double congested_depth = 16.0;
};

class AdmissionGate {
 public:
  // Fixed budget, no adaptation.
  explicit AdmissionGate(int tokens);
  explicit AdmissionGate(const AdmissionOptions& opts);
  ~AdmissionGate();

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  // RAII token. Default-constructed tickets hold nothing.
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket() { Release(); }
    Ticket(Ticket&& other) noexcept
        : gate_(other.gate_), session_(other.session_), grant_ns_(other.grant_ns_) {
      other.gate_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        gate_ = other.gate_;
        session_ = other.session_;
        grant_ns_ = other.grant_ns_;
        other.gate_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool held() const { return gate_ != nullptr; }
    std::uint64_t session() const { return session_; }
    void Release();

   private:
    friend class AdmissionGate;
    Ticket(AdmissionGate* gate, std::uint64_t session, std::int64_t grant_ns)
        : gate_(gate), session_(session), grant_ns_(grant_ns) {}
    AdmissionGate* gate_ = nullptr;
    std::uint64_t session_ = 0;
    std::int64_t grant_ns_ = 0;  // when the token was granted (hold-time EWMA)
  };

  // Blocks until the scheduler grants this session a token under the current
  // effective budget. `session` groups waiters for round-robin (0 = the
  // anonymous session, still one group); `weight` is admissions earned per
  // round while backlogged (clamped to >= 1, latest call wins).
  //
  // A non-inert `cancel` adds the deadline policies (header comment): may
  // throw OverloadError (predicted wait exceeds the deadline — load shed,
  // nothing was queued), DeadlineError (deadline passed before or while
  // queued), or CancelledError (Cancel() observed while queued; polled every
  // few ms, since cancellation has no condition variable to poke). On any
  // throw the waiter has fully withdrawn: no token held, no queue entry
  // left, waiting() exact.
  Ticket Acquire(std::uint64_t session = 0, int weight = 1, const CancelToken& cancel = {});

  // Per-tenant token-bucket rate quota, keyed like Acquire's `session`.
  // SetQuota installs/overwrites the bucket (burst <= 0 derives a small
  // burst from the rate) and takes a reference; DropQuota releases one —
  // the bucket disappears with its last reference. ChargeQuota debits one
  // evaluation, throwing OverloadError{retry_after_us} when the bucket is
  // empty; a burst below one evaluation admits from a full bucket and
  // leaves it in debt, like an oversized ChargeBytes. Sessions with no
  // bucket installed are never charged.
  void SetQuota(std::uint64_t session, double evals_per_sec, double burst = 0.0);
  void DropQuota(std::uint64_t session);
  void ChargeQuota(std::uint64_t session);

  // Per-tenant byte-rate quota over the PlanSizeEstimate byte model (the
  // same bytes the inline/pooled decision and the plan-cache budget use).
  // ChargeBytes debits `bytes` from the tenant's bucket; an empty bucket
  // throws OverloadError{kQuota, retry_after_us} with the honest refill
  // time for the requested size. A request larger than the burst admits
  // when the bucket is full and leaves it in debt (self-repaying at the
  // configured rate), so burst caps pacing, not plan size. burst <= 0
  // derives 250 ms worth of rate. Sessions with no byte bucket installed
  // are never charged.
  void SetByteQuota(std::uint64_t session, double bytes_per_sec, double burst = 0.0);
  void DropByteQuota(std::uint64_t session);
  void ChargeBytes(std::uint64_t session, std::int64_t bytes);

  // Graceful drain: stop admitting. New Acquires and already-queued waiters
  // throw OverloadError{kDraining}; quota charges also reject so drained
  // evaluations never debit tenant buckets. Idempotent and terminal — the
  // gate (and its ServingContext) is winding down for destruction.
  void BeginDrain();
  bool draining() const;

  // Feeds one queue-depth sample into the EWMA and recomputes the effective
  // budget and cutoff. No-op in fixed mode. Wakes waiters if the budget grew.
  void Observe(std::size_t queue_depth);

  // Observe with an explicit timestamp for the decay term (tests).
  void ObserveAtNanos(std::size_t queue_depth, std::int64_t now_ns);

  bool adaptive() const { return adaptive_; }

  // Current effective token budget (fixed mode: the constructor argument).
  int tokens() const;
  int in_use() const;

  // Waiters currently blocked in Acquire (introspection; tests use it to
  // sequence deterministic contention).
  int waiting() const;

  // Smoothed token hold time (ns; 0 until the first release) and the wait
  // the shedding policy would currently predict for a new arrival (0 when
  // it cannot predict). Introspection for tests and the loadgen.
  std::int64_t ewma_hold_ns() const;
  std::int64_t EstimatedWaitNanos() const;

  // Current inline-vs-pooled cutoff; fixed mode returns `fallback` (the
  // runtime's static serial_cutoff_elems).
  std::int64_t cutoff_elems(std::int64_t fallback) const;

  double ewma_depth() const;

  const AdmissionOptions& options() const { return opts_; }

 private:
  // A blocked Acquire, stack-allocated by its own thread. The scheduler
  // flips `admitted` (and accounts the token) under mu_; the waiter just
  // sleeps on its predicate.
  struct Waiter {
    bool admitted = false;
  };
  struct SessionQueue {
    std::deque<Waiter*> waiters;
    double deficit = 0.0;  // admissions owed; reset when the queue empties
    int weight = 1;
  };

  // Token bucket in evaluations or bytes; tokens go negative while an
  // oversized request's debt repays.
  struct QuotaBucket {
    double rate = 0.0;   // units per second
    double burst = 1.0;  // bucket capacity
    double tokens = 0.0;
    std::int64_t last_refill_ns = 0;
    int refs = 0;
  };
  using QuotaMap = std::unordered_map<std::uint64_t, QuotaBucket>;

  void ReleaseToken(std::int64_t grant_ns);
  void RecomputeLocked();   // effective budget/cutoff from ewma_depth_
  bool ScheduleLocked();    // grants free tokens to waiters; true if any
  // Withdraws a not-yet-admitted waiter (timed-out or cancelled) from its
  // session queue, keeping the DRR rotation consistent.
  void RemoveWaiterLocked(std::uint64_t session, Waiter* waiter);
  std::int64_t EstimatedWaitNanosLocked() const;
  // The one quota implementation behind SetQuota/SetByteQuota and friends:
  // `amount` is one evaluation or a plan's bytes, `unit` names it in the
  // rejection message.
  void SetBucket(QuotaMap& buckets, std::uint64_t session, double rate, double burst);
  void DropBucket(QuotaMap& buckets, std::uint64_t session);
  void ChargeBucket(QuotaMap& buckets, std::uint64_t session, std::int64_t amount,
                    const char* unit);

  const bool adaptive_;
  const AdmissionOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int in_use_ = 0;
  int waiting_ = 0;
  double ewma_depth_ = 0.0;
  std::int64_t last_observe_ns_ = 0;
  int effective_tokens_;
  std::int64_t effective_cutoff_;
  // Session queues plus the round-robin rotation of sessions that currently
  // have waiters (a session id is in rr_ iff it is in queues_).
  std::unordered_map<std::uint64_t, SessionQueue> queues_;
  std::list<std::uint64_t> rr_;
  // Smoothed token hold time feeding the shedding prediction (same alpha as
  // the depth EWMA); 0 until the first release.
  double ewma_hold_ns_ = 0.0;
  // Per-tenant rate-quota buckets (see SetQuota) and byte-quota buckets
  // (see SetByteQuota).
  QuotaMap quotas_;
  QuotaMap byte_quotas_;
  bool draining_ = false;
};

// What EstimatePlanSize could learn about a plan's parallel work before
// executing it. `elems` is the maximum split-input element count across
// non-serial stages; `bytes` is the same maximum weighted by each stage's
// widest sized input (kNominalElemBytes floor), which is the unit the
// inline/pooled decision and the plan-cache budget share. sized = false
// means some stage's work could not be bounded (conservative: treat as
// large); all-serial plans are sized with zeros.
struct PlanSizeEstimate {
  std::int64_t elems = 0;
  std::int64_t bytes = 0;
  bool sized = true;
};

// Cheap upper-bound estimate of a plan's parallel work. Sizes each
// non-serial stage from its split inputs (via the splitters' Info); a stage
// whose only split inputs are produced by earlier stages of the same plan
// (pending slots with no value yet — the steady-state EvalStream shape)
// inherits the running maximum instead of poisoning the estimate, since a
// plan's intermediates are bounded by its inputs for element-wise stages.
PlanSizeEstimate EstimatePlanSize(const Plan& plan, const TaskGraph& graph,
                                  const Registry& registry);

}  // namespace mz

#endif  // MOZART_CORE_ADMISSION_H_
