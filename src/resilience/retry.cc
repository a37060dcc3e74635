#include "resilience/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace xprs {

int RetryPolicy::BackoffMs(int failures) const {
  if (failures < 1) failures = 1;
  double ms = std::max(0, initial_backoff_ms);
  for (int i = 1; i < failures; ++i) ms *= std::max(1.0, backoff_multiplier);
  return static_cast<int>(std::min<double>(ms, std::max(0, max_backoff_ms)));
}

bool IsRetryableStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIoError:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

Status BackoffSleep(const RetryPolicy& policy, int failures,
                    const CancellationToken* token) {
  return BackoffSleepMs(policy.BackoffMs(failures), token);
}

Status BackoffSleepMs(int ms, const CancellationToken* token) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  // Sleep in 1 ms slices so cancellation cuts the wait short.
  while (std::chrono::steady_clock::now() < until) {
    if (token != nullptr) XPRS_RETURN_IF_ERROR(token->Check());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (token != nullptr) XPRS_RETURN_IF_ERROR(token->Check());
  return Status::OK();
}

int JitteredBackoffMs(const RetryPolicy& policy, int failures, Rng* rng) {
  const int base = policy.BackoffMs(failures);
  if (rng == nullptr || base <= 0) return base;
  // Uniform in [base/2, base + base/2]: full-jitter spreads a retry storm
  // over one backoff period without ever collapsing the wait to zero.
  const int half = std::max(1, base / 2);
  return half + static_cast<int>(rng->NextUint64(
                    static_cast<uint64_t>(base) + 1));
}

namespace retry_internal {

Status PrepareRetry(const StatementRetry& retry, int attempt,
                    const Status& failure) {
  if (!IsRetryableStatus(failure) || attempt >= retry.policy.max_attempts ||
      (retry.cancel != nullptr && retry.cancel->cancelled()))
    return failure;
  EmitResilienceEvent(retry.obs, "serve.query_retry", -1.0, retry.track,
                      {{"attempt", attempt}, {"status", failure.ToString()}});
  XPRS_RETURN_IF_ERROR(BackoffSleepMs(
      JitteredBackoffMs(retry.policy, attempt, retry.jitter), retry.cancel));
  return Status::OK();
}

}  // namespace retry_internal

void EmitResilienceEvent(
    const Observability& obs, const std::string& kind, double time_seconds,
    int64_t track, std::vector<std::pair<std::string, TraceValue>> args) {
  const std::string name = "resilience." + kind;
  if (obs.metrics != nullptr) obs.metrics->counter(name)->Increment();
  if (obs.tracing()) {
    if (time_seconds < 0.0) {
      time_seconds =
          static_cast<double>(CancellationToken::NowNs()) / 1e9;
    }
    obs.Emit({name, "resilience", 'i', time_seconds, 0.0, track,
              std::move(args)});
  }
}

}  // namespace xprs
