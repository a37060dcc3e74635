#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q over n samples.
size_t Rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

Quantile QuantileOf(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t rank = Rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

size_t MinSamplesFor(double q) {
  size_t n = kMinBeyond + 1;
  while (n - Rank(n, q) < kMinBeyond) ++n;
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MeanOfMedians(const std::vector<std::vector<double>>& per_type,
                     size_t* min_beyond) {
  std::vector<double> medians;
  size_t fewest = 0;
  for (const std::vector<double>& samples : per_type) {
    if (samples.empty()) continue;
    const size_t beyond = QuantileOf(samples, 0.5).beyond;
    fewest = medians.empty() ? beyond : std::min(fewest, beyond);
    medians.push_back(Median(samples));
  }
  if (min_beyond != nullptr) *min_beyond = fewest;
  return Mean(medians);
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void Digest::Add(std::string_view rendered_row) {
  ++rows;
  checksum += Fnv1a(rendered_row);
}

Clock::time_point DueTime(Clock::time_point start, double rate_per_s,
                          uint64_t index) {
  const double seconds = static_cast<double>(index) / rate_per_s;
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

bool BacklogGrew(int64_t outstanding_mid, int64_t outstanding_end,
                 int64_t slack) {
  return outstanding_end - outstanding_mid > slack;
}

bool RungMeetsSlo(const Rung& rung, double slo_ms) {
  return rung.p99_ms.supported() && rung.p99_ms.value <= slo_ms &&
         rung.failed == 0 && !rung.backlog_grew;
}

double MaxRateUnderSlo(const std::vector<Rung>& ladder, double slo_ms) {
  double best = 0.0;
  for (const Rung& rung : ladder) {
    if (!RungMeetsSlo(rung, slo_ms)) break;
    best = rung.rate;
  }
  return best;
}

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

double Share(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

const std::vector<MetricSpec>& MetricSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", MetricKind::kEndToEnd},
      {"throughput_qps", "1/s", MetricKind::kEndToEnd},
      {"latency_p50_ms", "ms", MetricKind::kEndToEnd},
      {"latency_p95_ms", "ms", MetricKind::kEndToEnd},
      {"cpu_ms_per_query", "ms", MetricKind::kEndToEnd},
      {"success_rate", "ratio", MetricKind::kEndToEnd},
      {"sql.plan_ms", "ms", MetricKind::kPerLayer},
      {"serve.estimate_ms", "ms", MetricKind::kPerLayer},
      {"serve.admission_ms", "ms", MetricKind::kPerLayer},
      {"serve.queue_wait_ms", "ms", MetricKind::kPerLayer},
      {"serve.execute_ms", "ms", MetricKind::kPerLayer},
      {"serve.drain_ms", "ms", MetricKind::kPerLayer},
      {"serve.span_coverage_min", "ratio", MetricKind::kPerLayer},
      {"serve.peak_running", "count", MetricKind::kPerLayer},
      {"serve.rejected", "count", MetricKind::kPerLayer},
      {"serve.degraded", "count", MetricKind::kPerLayer},
      {"sched.pair_start_share", "ratio", MetricKind::kPerLayer},
      {"sched.adjustments_per_query", "count", MetricKind::kPerLayer},
      {"sched.slaves_per_core", "ratio", MetricKind::kPerLayer},
      {"opt.qerror_median", "ratio", MetricKind::kPerLayer},
      {"opt.qerror_max", "ratio", MetricKind::kPerLayer},
      {"opt.build_side_wrong", "count", MetricKind::kPerLayer},
      {"exec.tuple_ms", "ms", MetricKind::kPerLayer},
      {"exec.batch_ms", "ms", MetricKind::kPerLayer},
      {"parallel.exec_ms", "ms", MetricKind::kPerLayer},
      {"parallel.speedup_vs_batch", "ratio", MetricKind::kPerLayer},
      {"parallel.build_rows_ratio", "ratio", MetricKind::kPerLayer},
      {"parallel.fragments_per_query", "count", MetricKind::kPerLayer},
      {"storage.pool_hit_ratio", "ratio", MetricKind::kPerLayer},
      {"storage.disk_reads_per_query", "count", MetricKind::kPerLayer},
      {"storage.rand_read_share", "ratio", MetricKind::kPerLayer},
      {"storage.disk_utilization", "ratio", MetricKind::kPerLayer},
      {"storage.interference_share", "ratio", MetricKind::kPerLayer},
      {"resilience.retries", "count", MetricKind::kPerLayer},
      {"obs.overhead_pct", "%", MetricKind::kPerLayer},
      {"harness.gen_lag_p99_ms", "ms", MetricKind::kPerLayer},
      {"harness.samples", "count", MetricKind::kPerLayer},
  };
  return specs;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultLine(uint64_t attempted, uint64_t failed, MetricKind kind,
                       const std::map<std::string, double>& values,
                       std::string* missing) {
  std::string metrics;
  for (const MetricSpec& spec : MetricSpecs()) {
    if (spec.kind != kind) continue;
    auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      if (missing != nullptr) *missing = spec.name;
      return "";
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  return "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace perfbench
