// Retry policy, retryability classification, the whole-statement retry,
// and the resilience event vocabulary.
//
// Each fault domain has one retry owner (DESIGN.md "Resilience"):
//
//   page fetch  FetchWithBackpressure (exec/operators.h) absorbs the
//               buffer pool's soft-pin kResourceExhausted inline, keeping
//               the work the scan has done so far
//   statement   RetryStatement re-runs the whole statement, same plan,
//               after a jittered exponential backoff, for everything else
//               that surfaces retryably from execution (kIoError,
//               kResourceExhausted); the serving engine gates each attempt
//               on its fault domain's circuit breaker
//
// A failed fragment run fails its statement; nothing below the statement
// re-runs a fragment. Cancellation and deadlines are never retried: a
// cancelled query must stop, not loop. Every retry emits a `resilience.*`
// counter plus an instant trace event through EmitResilienceEvent so
// recoveries are visible in metrics snapshots and Chrome traces.

#ifndef XPRS_RESILIENCE_RETRY_H_
#define XPRS_RESILIENCE_RETRY_H_

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "resilience/cancellation.h"
#include "util/rng.h"
#include "util/status.h"

namespace xprs {

/// Bounded exponential backoff. `max_attempts` counts the first try:
/// max_attempts = 3 means one initial attempt plus two retries.
struct RetryPolicy {
  int max_attempts = 3;
  int initial_backoff_ms = 1;
  double backoff_multiplier = 2.0;
  int max_backoff_ms = 50;

  /// Backoff before retry number `failures` (>= 1), in milliseconds.
  int BackoffMs(int failures) const;
};

/// True for fault classes worth retrying: transient storage errors
/// (kIoError) and resource pressure (kResourceExhausted). Cancellation,
/// deadline expiry and logic errors are terminal.
bool IsRetryableStatus(const Status& status);

/// Sleeps the policy's backoff for retry number `failures`, polling
/// `token` (nullable) so a cancelled query stops waiting. Returns the
/// token's terminal status if it fired, OK otherwise.
Status BackoffSleep(const RetryPolicy& policy, int failures,
                    const CancellationToken* token);

/// Sleeps `ms` milliseconds in 1 ms cancellation-polling slices (the
/// primitive under BackoffSleep, exposed for the jittered statement retry).
Status BackoffSleepMs(int ms, const CancellationToken* token);

/// The policy's backoff for retry `failures` with ±50% decorrelation
/// jitter from `rng`, so a fleet of queries retrying the same fault does
/// not thunder back in lockstep. `rng` must not be shared across threads.
int JitteredBackoffMs(const RetryPolicy& policy, int failures, Rng* rng);

/// Increments counter `resilience.<kind>` and emits an instant trace event
/// of the same name (category "resilience", `track` as the tid). The
/// timestamp is `time_seconds` on whatever clock the caller's trace uses;
/// pass a negative value to stamp with the process steady clock.
void EmitResilienceEvent(
    const Observability& obs, const std::string& kind, double time_seconds,
    int64_t track,
    std::vector<std::pair<std::string, TraceValue>> args = {});

/// Consulted around every attempt of a retried statement: a fault
/// domain's circuit breaker (serve/overload.h).
class AttemptGate {
 public:
  virtual ~AttemptGate() = default;
  /// OK when the attempt may run; otherwise the status the statement ends
  /// with, without running and without a retry.
  virtual Status Allow() = 0;
  /// The outcome of an attempt that Allow() let through.
  virtual void Record(const Status& outcome) = 0;
};

/// How RetryStatement retries.
struct StatementRetry {
  RetryPolicy policy;
  /// Polled during the backoff; once cancelled, no further attempt runs.
  const CancellationToken* cancel = nullptr;
  /// Jitter source for the backoff (JitteredBackoffMs); nullptr sleeps the
  /// plain policy backoff.
  Rng* jitter = nullptr;
  /// Target of the `resilience.serve.query_retry` events, tagged `track`.
  Observability obs;
  int64_t track = 0;
  /// Optional per-attempt gate.
  AttemptGate* gate = nullptr;
};

namespace retry_internal {
/// After failed attempt number `attempt`: OK once the retry event is
/// emitted and the backoff slept, so the statement runs again; otherwise
/// the status the statement ends with (`failure` itself, or the token's
/// status when cancellation cut the backoff short).
Status PrepareRetry(const StatementRetry& retry, int attempt,
                    const Status& failure);
}  // namespace retry_internal

/// The whole-statement retry: runs `run` (a callable returning
/// StatusOr<T>) until it succeeds, fails non-retryably, the token is
/// cancelled, the gate refuses, or `retry.policy.max_attempts` executions
/// ran. Returns the last result; `*attempts` (optional) receives the
/// number of executions.
template <typename Run>
std::invoke_result_t<Run&> RetryStatement(const StatementRetry& retry,
                                          Run&& run, int* attempts = nullptr) {
  if (attempts != nullptr) *attempts = 0;
  for (int attempt = 1;; ++attempt) {
    if (retry.gate != nullptr) {
      Status allowed = retry.gate->Allow();
      if (!allowed.ok()) return allowed;
    }
    if (attempts != nullptr) ++*attempts;
    std::invoke_result_t<Run&> result = run();
    if (retry.gate != nullptr) retry.gate->Record(result.status());
    if (result.ok()) return result;
    Status next = retry_internal::PrepareRetry(retry, attempt, result.status());
    if (!next.ok()) return next;
  }
}

}  // namespace xprs

#endif  // XPRS_RESILIENCE_RETRY_H_
