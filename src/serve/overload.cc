#include "serve/overload.h"

#include <algorithm>
#include <utility>

#include "resilience/retry.h"
#include "util/str.h"

namespace xprs {

namespace {

constexpr const char* kBreakerPrefix = "circuit open";
constexpr const char* kPoisonPrefix = "poison quarantine";

}  // namespace

// --- OverloadController -----------------------------------------------------

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "unknown";
}

OverloadController::OverloadController(const OverloadOptions& options,
                                       const Observability& obs)
    : options_(options), obs_(obs), epoch_(std::chrono::steady_clock::now()) {
  if (obs_.metrics != nullptr) {
    g_state_ = obs_.metrics->gauge("overload.state");
    m_transitions_ = obs_.metrics->counter("overload.transitions");
    m_shed_ = obs_.metrics->counter("overload.shed");
    g_state_->Set(0.0);
  }
}

double OverloadController::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void OverloadController::SetMemoryProbe(std::function<double()> probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  memory_probe_ = std::move(probe);
}

void OverloadController::RecordOutcome(bool failure, double latency_seconds) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  outcomes_.push_back(failure);
  if (failure) ++window_failures_;
  latencies_.push_back(latency_seconds);
  while (outcomes_.size() > options_.window) {
    if (outcomes_.front()) --window_failures_;
    outcomes_.pop_front();
  }
  while (latencies_.size() > options_.window) latencies_.pop_front();
}

HealthState OverloadController::TargetLocked(const OverloadSignals& signals,
                                             std::string* reason) const {
  double mem_frac = signals.mem_frac;
  if (memory_probe_) mem_frac = std::max(mem_frac, memory_probe_());

  double fault_rate = -1.0;
  if (outcomes_.size() >= options_.min_samples)
    fault_rate = static_cast<double>(window_failures_) /
                 static_cast<double>(outcomes_.size());

  double p95 = -1.0;
  const bool latency_armed =
      options_.degraded_p95_seconds > 0.0 || options_.shedding_p95_seconds > 0.0;
  if (latency_armed && latencies_.size() >= options_.min_samples) {
    std::vector<double> sorted(latencies_.begin(), latencies_.end());
    std::sort(sorted.begin(), sorted.end());
    p95 = sorted[std::min(sorted.size() - 1,
                          static_cast<size_t>(sorted.size() * 0.95))];
  }

  auto over = [&](double value, double threshold) {
    return threshold > 0.0 && value >= 0.0 && value >= threshold;
  };

  if (over(fault_rate, options_.shedding_fault_rate)) {
    *reason = StrFormat("fault_rate %.2f >= %.2f", fault_rate,
                        options_.shedding_fault_rate);
    return HealthState::kShedding;
  }
  if (over(signals.queue_frac, options_.shedding_queue_frac)) {
    *reason = StrFormat("queue %.2f >= %.2f", signals.queue_frac,
                        options_.shedding_queue_frac);
    return HealthState::kShedding;
  }
  if (over(mem_frac, options_.shedding_mem_frac)) {
    *reason = StrFormat("mem %.2f >= %.2f", mem_frac,
                        options_.shedding_mem_frac);
    return HealthState::kShedding;
  }
  if (over(p95, options_.shedding_p95_seconds)) {
    *reason = StrFormat("p95 %.3fs >= %.3fs", p95,
                        options_.shedding_p95_seconds);
    return HealthState::kShedding;
  }

  if (over(fault_rate, options_.degraded_fault_rate)) {
    *reason = StrFormat("fault_rate %.2f >= %.2f", fault_rate,
                        options_.degraded_fault_rate);
    return HealthState::kDegraded;
  }
  if (over(signals.queue_frac, options_.degraded_queue_frac)) {
    *reason = StrFormat("queue %.2f >= %.2f", signals.queue_frac,
                        options_.degraded_queue_frac);
    return HealthState::kDegraded;
  }
  if (over(mem_frac, options_.degraded_mem_frac)) {
    *reason = StrFormat("mem %.2f >= %.2f", mem_frac,
                        options_.degraded_mem_frac);
    return HealthState::kDegraded;
  }
  if (over(p95, options_.degraded_p95_seconds)) {
    *reason = StrFormat("p95 %.3fs >= %.3fs", p95,
                        options_.degraded_p95_seconds);
    return HealthState::kDegraded;
  }
  *reason = "signals clear";
  return HealthState::kHealthy;
}

void OverloadController::TransitionLocked(HealthState to,
                                          const std::string& reason) {
  HealthState from = state();
  if (from == to) return;
  OverloadTransition tr;
  tr.t_seconds = NowSeconds();
  tr.from = from;
  tr.to = to;
  tr.reason = reason;
  transitions_.push_back(tr);
  reached_[static_cast<int>(to)] = true;
  last_transition_seconds_ = tr.t_seconds;
  clean_evals_ = 0;
  state_.store(static_cast<int>(to), std::memory_order_release);
  if (g_state_ != nullptr) g_state_->Set(static_cast<double>(to));
  if (m_transitions_ != nullptr) m_transitions_->Increment();
  EmitResilienceEvent(obs_, StrFormat("overload.%s", HealthStateName(to)),
                      -1.0, 0,
                      {{"from", std::string(HealthStateName(from))},
                       {"to", std::string(HealthStateName(to))},
                       {"reason", reason}});
}

void OverloadController::Evaluate(const OverloadSignals& signals) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::string reason;
  HealthState target = TargetLocked(signals, &reason);
  HealthState current = state();

  if (target > current) {
    // Escalation is immediate: the system is on fire, dwell times do not
    // apply.
    TransitionLocked(target, reason);
    return;
  }
  if (current == HealthState::kHealthy) return;

  // Monotone recovery: step down one level at a time, only after the
  // signals stayed below the *current* state's entry bar for
  // recovery_clean_evals consecutive evaluations and the state held for
  // min_dwell_seconds.
  if (target < current) {
    ++clean_evals_;
    const double held = NowSeconds() - last_transition_seconds_;
    if (clean_evals_ >= options_.recovery_clean_evals &&
        held >= options_.min_dwell_seconds) {
      HealthState next = current == HealthState::kShedding
                             ? HealthState::kDegraded
                             : HealthState::kHealthy;
      TransitionLocked(next, StrFormat("recovered after %d clean evals (%s)",
                                       clean_evals_, reason.c_str()));
    }
  } else {
    clean_evals_ = 0;
  }
}

Status OverloadController::AdmissionCheck(int priority) {
  if (!options_.enabled) return Status::OK();
  HealthState current = state();
  if (current == HealthState::kHealthy) return Status::OK();
  int floor = current == HealthState::kShedding
                  ? options_.shed_priority_floor
                  : options_.degraded_priority_floor;
  if (priority >= floor) return Status::OK();
  sheds_.fetch_add(1, std::memory_order_relaxed);
  if (m_shed_ != nullptr) m_shed_->Increment();
  return Status::ResourceExhausted(
      StrFormat("%s: state=%s, priority %d below admission floor %d",
                kShedPrefix, HealthStateName(current), priority, floor));
}

const char* OverloadController::kShedPrefix = "admission shed (overload)";

bool OverloadController::IsOverloadShed(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind(kShedPrefix, 0) == 0;
}

void OverloadController::CountShed() {
  sheds_.fetch_add(1, std::memory_order_relaxed);
  if (m_shed_ != nullptr) m_shed_->Increment();
}

double OverloadController::cpu_scale() const {
  switch (state()) {
    case HealthState::kDegraded:
      return options_.cpu_scale_degraded;
    case HealthState::kShedding:
      return options_.cpu_scale_shedding;
    default:
      return 1.0;
  }
}

double OverloadController::mem_scale() const {
  switch (state()) {
    case HealthState::kDegraded:
      return options_.mem_scale_degraded;
    case HealthState::kShedding:
      return options_.mem_scale_shedding;
    default:
      return 1.0;
  }
}

double OverloadController::io_scale() const {
  switch (state()) {
    case HealthState::kDegraded:
      return options_.io_scale_degraded;
    case HealthState::kShedding:
      return options_.io_scale_shedding;
    default:
      return 1.0;
  }
}

double OverloadController::queue_scale() const {
  return state() == HealthState::kShedding ? options_.queue_scale_shedding
                                           : 1.0;
}

std::vector<OverloadTransition> OverloadController::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

bool OverloadController::reached(HealthState state) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reached_[static_cast<int>(state)];
}

// --- CircuitBreaker ---------------------------------------------------------

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

CircuitBreaker::CircuitBreaker(std::string domain,
                               const CircuitBreakerOptions& options,
                               const Observability& obs)
    : domain_(std::move(domain)),
      options_(options),
      obs_(obs),
      epoch_(std::chrono::steady_clock::now()) {
  if (obs_.metrics != nullptr) {
    m_fast_fail_ = obs_.metrics->counter(
        StrFormat("overload.breaker.%s.fast_fail", domain_.c_str()));
    m_opened_ = obs_.metrics->counter(
        StrFormat("overload.breaker.%s.opened", domain_.c_str()));
  }
}

double CircuitBreaker::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void CircuitBreaker::TransitionLocked(BreakerState to) {
  if (state_ == to) return;
  BreakerState from = state_;
  state_ = to;
  if (to == BreakerState::kOpen) {
    opened_at_seconds_ = NowSeconds();
    ++times_opened_;
    if (m_opened_ != nullptr) m_opened_->Increment();
  }
  if (to != BreakerState::kHalfOpen) half_open_successes_ = 0;
  EmitResilienceEvent(obs_,
                      StrFormat("overload.breaker.%s", domain_.c_str()), -1.0,
                      0,
                      {{"from", std::string(BreakerStateName(from))},
                       {"to", std::string(BreakerStateName(to))}});
}

Status CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kOpen) {
    if (NowSeconds() - opened_at_seconds_ >= options_.open_seconds) {
      TransitionLocked(BreakerState::kHalfOpen);
    } else {
      ++fast_fails_;
      if (m_fast_fail_ != nullptr) m_fast_fail_->Increment();
      return Status::ResourceExhausted(StrFormat(
          "%s: %s breaker tripped after %d consecutive failures",
          kBreakerPrefix, domain_.c_str(), options_.failure_threshold));
    }
  }
  return Status::OK();
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    if (++half_open_successes_ >= options_.half_open_successes)
      TransitionLocked(BreakerState::kClosed);
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: the domain is still sick. Back to a full cooldown.
    TransitionLocked(BreakerState::kOpen);
    return;
  }
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= options_.failure_threshold) {
    TransitionLocked(BreakerState::kOpen);
  }
}

void CircuitBreaker::Record(const Status& outcome) {
  if (outcome.ok()) {
    RecordSuccess();
  } else if (outcome.code() == StatusCode::kIoError) {
    RecordFailure();
  }
}

bool CircuitBreaker::IsBreakerOpen(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind(kBreakerPrefix, 0) == 0;
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

uint64_t CircuitBreaker::fast_fails() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fast_fails_;
}

uint64_t CircuitBreaker::times_opened() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return times_opened_;
}

// --- PoisonLog --------------------------------------------------------------

std::string PoisonEntry::ToJson() const {
  return StrFormat(
      "{\"query\":\"%s\",\"session_id\":%lld,\"failures\":%d,"
      "\"attempts\":%d,\"last_status\":\"%s\",\"grant\":{"
      "\"parallelism\":%d,\"memory_pages\":%.9g,\"io_rate\":%.9g,"
      "\"degraded\":%s},\"seed\":%llu,\"quarantined\":%s,\"rejected\":%llu}",
      JsonEscape(query).c_str(), static_cast<long long>(session_id), failures,
      attempts, JsonEscape(last_status).c_str(), last_grant.parallelism,
      last_grant.memory_pages, last_grant.io_rate,
      last_grant.degraded ? "true" : "false",
      static_cast<unsigned long long>(seed), quarantined ? "true" : "false",
      static_cast<unsigned long long>(rejected));
}

PoisonLog::PoisonLog(int quarantine_failures, const Observability& obs)
    : quarantine_failures_(quarantine_failures), obs_(obs) {
  if (obs_.metrics != nullptr) {
    m_quarantined_ = obs_.metrics->counter("overload.poison.quarantined");
    m_rejected_ = obs_.metrics->counter("overload.poison.rejected");
  }
}

bool PoisonLog::RecordFailure(const std::string& sql, int64_t session_id,
                              const GrantSnapshot& grant, const Status& status,
                              int attempts, uint64_t seed) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  PoisonEntry* entry = nullptr;
  for (PoisonEntry& e : entries_)
    if (e.query == sql) {
      entry = &e;
      break;
    }
  if (entry == nullptr) {
    entries_.emplace_back();
    num_entries_.store(entries_.size(), std::memory_order_release);
    entry = &entries_.back();
    entry->query = sql;
  }
  entry->session_id = session_id;
  ++entry->failures;
  entry->attempts += attempts;
  entry->last_status = status.ToString();
  entry->last_grant = grant;
  if (seed != 0) entry->seed = seed;
  if (!entry->quarantined && entry->failures >= quarantine_failures_) {
    entry->quarantined = true;
    if (m_quarantined_ != nullptr) m_quarantined_->Increment();
    EmitResilienceEvent(obs_, "overload.poison_quarantine", -1.0, session_id,
                        {{"query", sql},
                         {"failures", static_cast<int64_t>(entry->failures)}});
    return true;
  }
  return false;
}

void PoisonLog::RecordSuccess(const std::string& sql) {
  if (num_entries_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(entries_, [&sql](const PoisonEntry& e) {
    return !e.quarantined && e.query == sql;
  });
  num_entries_.store(entries_.size(), std::memory_order_release);
}

bool PoisonLog::IsQuarantined(const std::string& sql) const {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const PoisonEntry& e : entries_)
    if (e.quarantined && e.query == sql) return true;
  return false;
}

Status PoisonLog::RejectIfQuarantined(const std::string& sql) {
  if (!enabled()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  for (PoisonEntry& e : entries_) {
    if (!e.quarantined || e.query != sql) continue;
    ++e.rejected;
    if (m_rejected_ != nullptr) m_rejected_->Increment();
    return Status::FailedPrecondition(
        StrFormat("%s: statement failed %d times and is quarantined "
                  "(last: %s)",
                  kPoisonPrefix, e.failures, e.last_status.c_str()));
  }
  return Status::OK();
}

bool PoisonLog::IsPoisonReject(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kPoisonPrefix, 0) == 0;
}

std::vector<PoisonEntry> PoisonLog::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

size_t PoisonLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t PoisonLog::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const PoisonEntry& e : entries_)
    if (e.quarantined) ++n;
  return n;
}

std::string PoisonLog::DumpJsonLines() const {
  std::vector<PoisonEntry> snapshot = entries();
  std::string out;
  for (const PoisonEntry& entry : snapshot) {
    out += entry.ToJson();
    out += "\n";
  }
  return out;
}

}  // namespace xprs
