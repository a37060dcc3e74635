// Overload control for the serving layer: health states, circuit
// breakers, and poison-query quarantine.
//
// The §2.3 balance-point scheduler assumes queries that run to completion
// on a healthy machine. Under a sustained fault storm or memory squeeze
// that optimism turns into retry loops, unbounded queues and a disk being
// hammered by work that cannot succeed. This header adds the three
// classic serving defenses on top of the scheduler's static budgets:
//
//   OverloadController  an explicit health state machine
//                       (healthy -> degraded -> shedding) driven by
//                       rolling windows of fault rate and latency plus
//                       instantaneous queue depth / memory / buffer-pool
//                       pressure. Escalation is immediate; recovery is
//                       monotone and deliberate (a minimum dwell time and
//                       N consecutive clean evaluations per step down).
//                       While unhealthy the controller shrinks the
//                       scheduler's effective cpu/io/memory/queue budgets
//                       and, in shedding, fast-rejects low-priority work
//                       at admission.
//
//   CircuitBreaker      per fault domain (storage reads, spill io).
//                       Consecutive failures open the breaker; while open
//                       every attempt fast-fails instead of hammering the
//                       failing disk; after a cooldown a half-open probe
//                       decides between closing and re-opening.
//
//   PoisonLog           SlowQueryLog-style quarantine record. A statement
//                       that keeps failing across whole-query retries is
//                       recorded (sql, session, grant, seed, status) and
//                       never re-admitted: re-submissions are rejected
//                       synchronously without touching the planner or an
//                       operator, so one bad plan cannot starve the fleet.
//
// All three are thread-safe and publish `overload.*` metrics plus
// state-transition trace events through the shared Observability.

#ifndef XPRS_SERVE_OVERLOAD_H_
#define XPRS_SERVE_OVERLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "resilience/retry.h"
#include "serve/lifecycle.h"
#include "util/status.h"

namespace xprs {

// --- health state machine ---------------------------------------------------

enum class HealthState { kHealthy = 0, kDegraded = 1, kShedding = 2 };

const char* HealthStateName(HealthState state);

struct OverloadOptions {
  /// Master switch; when false every hook is a no-op and the scheduler
  /// behaves exactly as before this controller existed.
  bool enabled = true;

  /// Rolling window of completion outcomes/latencies the fault-rate and
  /// p95 signals are computed over.
  size_t window = 64;
  /// Minimum outcomes in the window before fault/latency signals count.
  size_t min_samples = 16;

  // Signal thresholds. A signal at or above its shedding threshold forces
  // kShedding; at or above its degraded threshold, kDegraded. Thresholds
  // set to 0 (latency) disable that signal.
  double degraded_fault_rate = 0.25;
  double shedding_fault_rate = 0.50;
  /// Queue depth as a fraction of max_queue_depth.
  double degraded_queue_frac = 0.80;
  double shedding_queue_frac = 0.95;
  /// Scheduler memory budget in use / buffer-pool pinned fraction
  /// (whichever is higher; the pool probe is optional).
  double degraded_mem_frac = 0.92;
  double shedding_mem_frac = 0.99;
  /// p95 of submit-to-resolve latency, seconds. 0 disables.
  double degraded_p95_seconds = 0.0;
  double shedding_p95_seconds = 0.0;

  /// Admission floors: while shedding (resp. degraded), submissions with
  /// priority below the floor are rejected synchronously. The defaults
  /// shed everything at default priority (0) while unhealthy work of
  /// priority >= 1 still gets through.
  int shed_priority_floor = 1;
  int degraded_priority_floor = std::numeric_limits<int>::min();

  // Effective-budget scale factors applied by the scheduler per state.
  double cpu_scale_degraded = 0.75;
  double cpu_scale_shedding = 0.50;
  double mem_scale_degraded = 0.75;
  double mem_scale_shedding = 0.50;
  double io_scale_degraded = 0.75;
  double io_scale_shedding = 0.50;
  double queue_scale_shedding = 0.50;

  /// Recovery is monotone: a state must hold for min_dwell_seconds AND see
  /// recovery_clean_evals consecutive evaluations below its own entry
  /// thresholds before stepping down one level.
  double min_dwell_seconds = 0.10;
  int recovery_clean_evals = 8;
};

/// Instantaneous pressure the scheduler reports at each evaluation.
struct OverloadSignals {
  double queue_frac = 0.0;
  double mem_frac = 0.0;
};

/// One recorded state change (timestamps are seconds since the controller
/// was constructed, on the steady clock).
struct OverloadTransition {
  double t_seconds = 0.0;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  std::string reason;
};

class OverloadController {
 public:
  /// Message prefix of every admission-shed status (IsOverloadShed).
  static const char* kShedPrefix;

  OverloadController(const OverloadOptions& options, const Observability& obs);

  OverloadController(const OverloadController&) = delete;
  OverloadController& operator=(const OverloadController&) = delete;

  /// Optional extra memory-pressure probe (e.g. buffer-pool pinned
  /// fraction); sampled at every evaluation and max-ed with the
  /// scheduler's own mem_frac. Install before queries flow.
  void SetMemoryProbe(std::function<double()> probe);

  /// Records one completed query: whether it failed (cancellations are the
  /// caller's business to exclude) and its submit-to-resolve latency.
  void RecordOutcome(bool failure, double latency_seconds);

  /// Re-evaluates the state machine against the rolling windows plus the
  /// instantaneous signals. Cheap; called at every submit and completion.
  void Evaluate(const OverloadSignals& signals);

  /// OK when `priority` may be admitted in the current state; otherwise a
  /// distinct ResourceExhausted shed status (IsOverloadShed). Counts the
  /// shed.
  Status AdmissionCheck(int priority);

  /// True iff `status` is the controller's admission shed (as opposed to a
  /// queue-full reject or storage ResourceExhausted).
  static bool IsOverloadShed(const Status& status);

  /// Counts a shed decided by the caller (e.g. the scheduler's scaled
  /// queue cap) so sheds()/metrics stay complete.
  void CountShed();

  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }

  // Effective-budget scales for the current state (1.0 while healthy).
  double cpu_scale() const;
  double mem_scale() const;
  double io_scale() const;
  double queue_scale() const;

  const OverloadOptions& options() const { return options_; }
  std::vector<OverloadTransition> transitions() const;
  /// True iff the controller ever reached `state`.
  bool reached(HealthState state) const;
  uint64_t sheds() const { return sheds_.load(std::memory_order_relaxed); }

 private:
  /// Highest state the current signals justify, plus a reason.
  HealthState TargetLocked(const OverloadSignals& signals,
                           std::string* reason) const;
  void TransitionLocked(HealthState to, const std::string& reason);
  double NowSeconds() const;

  const OverloadOptions options_;
  Observability obs_;

  mutable std::mutex mutex_;
  std::function<double()> memory_probe_;
  std::deque<bool> outcomes_;       // true = failure
  size_t window_failures_ = 0;
  std::deque<double> latencies_;    // seconds, same window
  double last_transition_seconds_ = 0.0;
  int clean_evals_ = 0;
  std::vector<OverloadTransition> transitions_;
  bool reached_[3] = {true, false, false};

  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};
  std::atomic<uint64_t> sheds_{0};

  std::chrono::steady_clock::time_point epoch_;

  Gauge* g_state_ = nullptr;
  Counter* m_transitions_ = nullptr;
  Counter* m_shed_ = nullptr;
};

// --- circuit breaker --------------------------------------------------------

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateName(BreakerState state);

struct CircuitBreakerOptions {
  /// Consecutive domain failures that trip the breaker open.
  int failure_threshold = 5;
  /// Cooldown before an open breaker lets a half-open probe through.
  double open_seconds = 0.10;
  /// Consecutive probe successes that close a half-open breaker.
  int half_open_successes = 1;
};

/// One fault domain's breaker (storage reads, spill io). Thread-safe.
/// As an AttemptGate it gates every attempt of a retried statement.
class CircuitBreaker : public AttemptGate {
 public:
  CircuitBreaker(std::string domain, const CircuitBreakerOptions& options,
                 const Observability& obs);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// OK when an attempt may proceed (closed, or half-open probe);
  /// otherwise the fast-fail status (IsBreakerOpen) without touching the
  /// domain.
  Status Allow() override;

  void RecordSuccess();
  void RecordFailure();
  /// A success closes toward healthy; a kIoError counts as a domain
  /// failure; any other outcome says nothing about the domain.
  void Record(const Status& outcome) override;

  /// True iff `status` is a breaker fast-fail. Fast-fails carry
  /// kResourceExhausted (nominally retryable) — a statement retry must check
  /// this predicate and stop instead of spinning on an open breaker.
  static bool IsBreakerOpen(const Status& status);

  BreakerState state() const;
  const std::string& domain() const { return domain_; }
  uint64_t fast_fails() const;
  uint64_t times_opened() const;

 private:
  void TransitionLocked(BreakerState to);
  double NowSeconds() const;

  const std::string domain_;
  const CircuitBreakerOptions options_;
  Observability obs_;

  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  double opened_at_seconds_ = 0.0;
  uint64_t fast_fails_ = 0;
  uint64_t times_opened_ = 0;

  std::chrono::steady_clock::time_point epoch_;

  Counter* m_fast_fail_ = nullptr;
  Counter* m_opened_ = nullptr;
};

// --- poison-query quarantine ------------------------------------------------

/// One quarantine record: everything needed to replay the failure offline.
struct PoisonEntry {
  std::string query;       ///< submitted SQL
  int64_t session_id = 0;  ///< session of the last failing submission
  int failures = 0;        ///< consecutive whole-statement failures
  int attempts = 0;        ///< execution attempts including retries
  std::string last_status;
  GrantSnapshot last_grant;
  uint64_t seed = 0;       ///< caller-provided replay seed (0 = none)
  bool quarantined = false;
  uint64_t rejected = 0;   ///< fast-rejects since quarantine

  /// One-line JSON object (stable key order).
  std::string ToJson() const;
};

/// Threshold-triggered quarantine log keyed by statement text.
/// Thread-safe.
class PoisonLog {
 public:
  /// Statements that fail `quarantine_failures` times in a row (terminal
  /// failures, after the statement retry) are quarantined; a successful
  /// completion clears the count. <= 0 disables recording and
  /// quarantining entirely.
  explicit PoisonLog(int quarantine_failures = 3,
                     const Observability& obs = Observability());

  PoisonLog(const PoisonLog&) = delete;
  PoisonLog& operator=(const PoisonLog&) = delete;

  bool enabled() const { return quarantine_failures_ > 0; }
  int quarantine_failures() const { return quarantine_failures_; }

  /// Records one terminal failure of `sql`. Returns true when this failure
  /// crossed the threshold and quarantined the statement.
  bool RecordFailure(const std::string& sql, int64_t session_id,
                     const GrantSnapshot& grant, const Status& status,
                     int attempts, uint64_t seed = 0);

  /// Records a successful completion of `sql`: drops its entry unless it
  /// is quarantined, so only consecutive failures count. Takes no lock
  /// while the log is empty.
  void RecordSuccess(const std::string& sql);

  bool IsQuarantined(const std::string& sql) const;

  /// OK when `sql` may be admitted; otherwise the distinct quarantine
  /// reject status (IsPoisonReject), with the fast-reject counted on the
  /// entry. Callers must not run (or even plan) the statement on a reject.
  Status RejectIfQuarantined(const std::string& sql);

  /// True iff `status` is a quarantine fast-reject.
  static bool IsPoisonReject(const Status& status);

  std::vector<PoisonEntry> entries() const;
  size_t size() const;
  size_t quarantined_count() const;
  /// All entries, one JSON object per line (a JSONL log).
  std::string DumpJsonLines() const;

 private:
  const int quarantine_failures_;
  Observability obs_;

  mutable std::mutex mutex_;
  std::vector<PoisonEntry> entries_;  // few entries expected: linear scan
  std::atomic<size_t> num_entries_{0};  // entries_.size(), read unlocked

  Counter* m_quarantined_ = nullptr;
  Counter* m_rejected_ = nullptr;
};

}  // namespace xprs

#endif  // XPRS_SERVE_OVERLOAD_H_
