// Self-test of the benchmark's helpers (harness.h): the percentile and
// sample-count rule, digest order-independence, due-time / lag / backlog /
// SLO-ladder logic, the q-error and share computations, and the result
// line's shape. run.py checks the line's metrics against BENCHMARK.json.
//
//   ctest --test-dir .bench_build/perfbench     (or run harness_test)

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestQuantiles() {
  // Nearest rank over 1..100: p50 = 50, p95 = 95 with 5 beyond.
  Quantile p50 = QuantileOf(OneTo(100), 0.50);
  EXPECT(Near(p50.value, 50) && p50.beyond == 50 && p50.samples == 100);
  Quantile p95 = QuantileOf(OneTo(100), 0.95);
  EXPECT(Near(p95.value, 95) && p95.beyond == 5 && !p95.supported());
  // 200 samples put exactly 10 beyond the p95; 199 do not.
  EXPECT(QuantileOf(OneTo(200), 0.95).supported());
  EXPECT(!QuantileOf(OneTo(199), 0.95).supported());
  EXPECT(MinSamplesFor(0.95) == 200);
  EXPECT(MinSamplesFor(0.99) == 1000);
  EXPECT(MinSamplesFor(0.50) == 20);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const size_t n = MinSamplesFor(q);
    EXPECT(QuantileOf(OneTo(n), q).supported());
    EXPECT(!QuantileOf(OneTo(n - 1), q).supported());
  }
  EXPECT(QuantileOf({}, 0.5).samples == 0);
  EXPECT(!QuantileOf({}, 0.5).supported());
  EXPECT(Near(QuantileOf({7.0}, 0.99).value, 7.0));
  EXPECT(Near(Median({3, 1, 2}), 2) && Near(Median({4, 1, 2, 3}), 2.5));
  EXPECT(Near(Median({}), 0) && Near(Mean({1, 2, 6}), 3));

  // Per-type medians 2, 8 and (skipped) nothing: mean 5, whatever the
  // number of samples of each type.
  std::vector<std::vector<double>> types = {{1, 2, 3}, {}, {9, 8, 7, 8, 8}};
  size_t beyond = 99;
  EXPECT(Near(MeanOfMedians(types, &beyond), 5.0));
  EXPECT(beyond == 1);
  // Sample order within a type does not matter.
  EXPECT(Near(MeanOfMedians({{3, 1, 2}}, nullptr), 2.0));
  EXPECT(Near(MeanOfMedians({}, &beyond), 0.0) && beyond == 0);
  // 20 samples put 10 beyond a type's median.
  MeanOfMedians({OneTo(20), OneTo(40)}, &beyond);
  EXPECT(beyond == 10);
}

void TestDigest() {
  const std::vector<std::string> rows = {"(1, a)", "(2, b)", "(2, b)",
                                         "(3, c)"};
  Digest forward, backward, missing, changed;
  for (const std::string& r : rows) forward.Add(r);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) backward.Add(*it);
  EXPECT(forward == backward);
  EXPECT(forward.rows == 4);
  for (size_t i = 1; i < rows.size(); ++i) missing.Add(rows[i]);
  EXPECT(!(forward == missing));
  for (const char* r : {"(1, a)", "(2, b)", "(2, c)", "(3, c)"})
    changed.Add(r);
  EXPECT(!(forward == changed));
  // A duplicated row is not the same as its single copy.
  Digest once, twice;
  once.Add("x");
  twice.Add("x");
  twice.Add("x");
  EXPECT(!(once == twice));
  EXPECT(Fnv1a("") == 1469598103934665603ULL);
}

void TestOpenLoop() {
  const Clock::time_point start{};
  EXPECT(Near(MsBetween(start, DueTime(start, 200.0, 0)), 0.0));
  EXPECT(std::fabs(MsBetween(start, DueTime(start, 200.0, 1)) - 5.0) < 1e-6);
  EXPECT(std::fabs(MsBetween(start, DueTime(start, 200.0, 1000)) - 5000.0) <
         1e-3);
  // Latency counts from the due time: a request sent 3 ms late that
  // completes 2 ms after sending took 5 ms.
  const Clock::time_point due = DueTime(start, 100.0, 4);
  const Clock::time_point sent = due + std::chrono::milliseconds(3);
  const Clock::time_point done = sent + std::chrono::milliseconds(2);
  EXPECT(std::fabs(MsBetween(due, done) - 5.0) < 1e-9);
  EXPECT(std::fabs(MsBetween(due, sent) - 3.0) < 1e-9);
  EXPECT(MsBetween(done, due) < 0);

  EXPECT(!BacklogGrew(3, 3, 4));
  EXPECT(!BacklogGrew(3, 7, 4));
  EXPECT(BacklogGrew(3, 8, 4));
  EXPECT(!BacklogGrew(50, 10, 4));
}

Rung MakeRung(double rate, double p99, size_t samples, uint64_t failed,
              bool grew) {
  Rung rung;
  rung.rate = rate;
  std::vector<double> lat(samples, p99 / 2);
  for (size_t i = 0; i < samples / 50; ++i) lat[i] = p99;
  rung.p99_ms = QuantileOf(lat, 0.99);
  rung.failed = failed;
  rung.backlog_grew = grew;
  return rung;
}

void TestLadder() {
  const double slo = 20.0;
  EXPECT(RungMeetsSlo(MakeRung(100, 10, 1100, 0, false), slo));
  EXPECT(!RungMeetsSlo(MakeRung(100, 30, 1100, 0, false), slo));
  EXPECT(!RungMeetsSlo(MakeRung(100, 10, 1100, 1, false), slo));
  EXPECT(!RungMeetsSlo(MakeRung(100, 10, 1100, 0, true), slo));
  // Too few samples for a p99: the rung cannot claim the SLO.
  EXPECT(!RungMeetsSlo(MakeRung(100, 10, 500, 0, false), slo));

  std::vector<Rung> ladder = {MakeRung(100, 5, 1100, 0, false),
                              MakeRung(200, 8, 1100, 0, false),
                              MakeRung(400, 50, 1100, 0, true),
                              MakeRung(800, 9, 1100, 0, false)};
  // A later rung that happens to pass does not count past a miss.
  EXPECT(Near(MaxRateUnderSlo(ladder, slo), 200));
  EXPECT(Near(MaxRateUnderSlo({MakeRung(100, 50, 1100, 0, false)}, slo), 0));
  EXPECT(Near(MaxRateUnderSlo({}, slo), 0));
}

void TestRatios() {
  EXPECT(Near(QError(100, 100), 1));
  EXPECT(Near(QError(234, 13996), 13996.0 / 234));
  EXPECT(Near(QError(13996, 234), 13996.0 / 234));
  EXPECT(Near(QError(0, 0), 1));
  EXPECT(Near(QError(0.2, 10), 10));
  // Build ratio and shares: parallel build rows over serial build rows.
  EXPECT(Near(Share(192000, 24000), 8.0));
  EXPECT(Near(Share(3, 12), 0.25));
  EXPECT(Near(Share(5, 0), 0));
}

void TestResultLine() {
  std::map<std::string, double> values;
  for (const MetricSpec& spec : MetricSpecs()) values[spec.name] = 1.25;
  for (MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kPerLayer}) {
    std::string missing;
    const std::string line = ResultLine(10, 0, kind, values, &missing);
    EXPECT(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
                      "\"metrics\": {",
                      0) == 0);
    for (const MetricSpec& spec : MetricSpecs()) {
      const std::string item = JsonString(spec.name) +
                               ": {\"value\": 1.25, \"unit\": " +
                               JsonString(spec.unit) + "}";
      EXPECT((line.find(item) != std::string::npos) == (spec.kind == kind));
    }
  }
  // A metric that was not measured fails the line instead of vanishing.
  values.erase("latency_p95_ms");
  std::string missing;
  EXPECT(ResultLine(1, 0, MetricKind::kEndToEnd, values, &missing)
             .empty());
  EXPECT(missing == "latency_p95_ms");
  EXPECT(JsonString("a\"b\\c") == "\"a\\\"b\\\\c\"");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestDigest();
  perfbench::TestOpenLoop();
  perfbench::TestLadder();
  perfbench::TestRatios();
  perfbench::TestResultLine();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "harness_test: %d failures\n", perfbench::failures);
    return 1;
  }
  std::printf("harness_test: all passed\n");
  return 0;
}
