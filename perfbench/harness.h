// Helpers of the repository benchmark that carry its statistical and
// correctness rules: percentiles with a sample-count floor, the
// order-independent result digest, open-loop due times and backlog checks,
// the SLO ladder, estimate/waste ratios, and the result line. They depend
// on nothing in the engine, so harness_test checks them in isolation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// --- percentiles -----------------------------------------------------------

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr size_t kMinBeyond = 10;

struct Quantile {
  double value = 0.0;
  size_t samples = 0;  ///< sample count the quantile was taken over
  size_t beyond = 0;   ///< samples ranked strictly above it
  bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample (q in (0, 1]).
Quantile QuantileOf(std::vector<double> samples, double q);

/// Smallest sample count whose q-quantile has kMinBeyond samples beyond.
size_t MinSamplesFor(double q);

/// Median (mean of the middle pair for an even count); 0 when empty.
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Typical latency of a query mix: the mean over query types of each
/// type's median, i.e. the median latency of a query drawn uniformly from
/// the mix. Types without samples are skipped. *min_beyond receives the
/// fewest samples beyond any type's median (0 when no type has samples).
double MeanOfMedians(const std::vector<std::vector<double>>& per_type,
                     size_t* min_beyond);

// --- result digest ---------------------------------------------------------

/// Order-independent digest of a result set: row count plus the sum
/// (mod 2^64) of each rendered row's FNV-1a hash.
struct Digest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  void Add(std::string_view rendered_row);
  bool operator==(const Digest& other) const {
    return rows == other.rows && checksum == other.checksum;
  }
};

uint64_t Fnv1a(std::string_view bytes);

// --- open loop -------------------------------------------------------------

/// When request `index` of a fixed-rate stream starting at `start` is due.
Clock::time_point DueTime(Clock::time_point start, double rate_per_s,
                          uint64_t index);

/// Milliseconds from `from` to `to` (negative when `to` is earlier).
double MsBetween(Clock::time_point from, Clock::time_point to);

/// True when the backlog (requests sent but not completed) grew between
/// mid-run and the end of sending by more than `slack` requests.
bool BacklogGrew(int64_t outstanding_mid, int64_t outstanding_end,
                 int64_t slack);

/// One rung of the offered-rate ladder.
struct Rung {
  double rate = 0.0;  ///< offered requests per second
  Quantile p99_ms;    ///< due-to-completion latency
  uint64_t failed = 0;
  bool backlog_grew = false;
};

/// A rung meets the SLO when its p99 is supported and within `slo_ms`,
/// nothing failed and the backlog did not grow.
bool RungMeetsSlo(const Rung& rung, double slo_ms);

/// The highest rate of an ascending ladder such that it and every rung
/// below it meet the SLO; 0 when the first rung already misses.
double MaxRateUnderSlo(const std::vector<Rung>& ladder, double slo_ms);

// --- estimate and waste ratios ---------------------------------------------

/// q-error of a cardinality estimate: max(est/actual, actual/est) with
/// both sides clamped to at least one row, so it is >= 1.
double QError(double estimated, double actual);

/// num / den, or 0 when den is 0 (a share of nothing is nothing).
double Share(double num, double den);

// --- the result line -------------------------------------------------------

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the result line carries, in output order. run.py fails a
/// run whose line does not match BENCHMARK.json's names and units.
const std::vector<MetricSpec>& MetricSpecs();

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}
/// with every metric of `kind` at full precision. Only runs whose results
/// were all correct print one, so "correct" is always true. Returns "" and
/// names the first missing metric in *missing when `values` lacks one.
std::string ResultLine(uint64_t attempted, uint64_t failed, MetricKind kind,
                       const std::map<std::string, double>& values,
                       std::string* missing);

/// Escapes `text` as a JSON string literal (with the quotes).
std::string JsonString(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
