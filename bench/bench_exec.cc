// Tuple-at-a-time vs vectorized (batch-at-a-time) executor throughput.
//
// Runs three CPU-bound workloads (kInstant disk, so decode/eval dominates)
// through ExecutePlanSequential and ExecutePlanVectorized and reports
// input-rows-per-second for each engine plus the speedup. Aggregate roots
// keep result materialization out of the measurement: the comparison is
// scan decode + predicate eval + join/aggregate work, which is where the
// batch path amortizes per-tuple virtual calls, Value materialization and
// profiler/cancellation polls. scripts/ci.sh runs this with --out= and
// asserts the scan+filter and hash-join speedups stay >= 2x.
//
//   bench_exec [--rows=N] [--reps=N] [--out=file.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_obs.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "storage/catalog.h"

namespace xprs {
namespace {

struct WorkloadResult {
  std::string name;
  uint64_t input_rows = 0;
  uint64_t result_rows = 0;
  double tuple_rows_per_sec = 0;
  double vectorized_rows_per_sec = 0;
  double speedup = 0;
};

// Input rows per second of one run of `plan` on the chosen engine.
double RowsPerSec(const PlanNode& plan, const ExecContext& ctx,
                  uint64_t input_rows, bool vectorized,
                  uint64_t* result_rows) {
  auto start = std::chrono::steady_clock::now();
  auto rows = vectorized ? ExecutePlanVectorized(plan, ctx)
                         : ExecutePlanSequential(plan, ctx);
  auto stop = std::chrono::steady_clock::now();
  if (!rows.ok()) {
    std::fprintf(stderr, "run failed: %s\n", rows.status().ToString().c_str());
    std::exit(1);
  }
  *result_rows = rows->size();
  double secs = std::chrono::duration<double>(stop - start).count();
  if (secs <= 0) secs = 1e-9;
  return static_cast<double>(input_rows) / secs;
}

// Best of `reps` runs on each engine. Every rep runs both engines back to
// back, alternating which goes first, so a slow stretch of the host lands
// on both sides of the speedup instead of on one.
WorkloadResult RunWorkload(const std::string& name, const PlanNode& plan,
                           uint64_t input_rows, int reps) {
  WorkloadResult r;
  r.name = name;
  r.input_rows = input_rows;
  ExecContext ctx;
  uint64_t vec_rows = 0;
  for (int rep = 0; rep < reps; ++rep) {
    for (bool vectorized : {rep % 2 == 1, rep % 2 == 0}) {
      double& best =
          vectorized ? r.vectorized_rows_per_sec : r.tuple_rows_per_sec;
      best = std::max(best, RowsPerSec(plan, ctx, input_rows, vectorized,
                                       vectorized ? &vec_rows
                                                  : &r.result_rows));
    }
  }
  if (vec_rows != r.result_rows) {
    std::fprintf(stderr, "%s: result mismatch (tuple=%llu vectorized=%llu)\n",
                 name.c_str(), static_cast<unsigned long long>(r.result_rows),
                 static_cast<unsigned long long>(vec_rows));
    std::exit(1);
  }
  r.speedup = r.vectorized_rows_per_sec / r.tuple_rows_per_sec;
  return r;
}

int Run(int argc, char** argv) {
  int rows = 200000;
  int reps = 3;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    BenchFlagInt(argv[i], "--rows=", &rows);
    BenchFlagInt(argv[i], "--reps=", &reps);
    BenchFlagString(argv[i], "--out=", &out_path);
  }

  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* big = catalog.CreateTable("big", Schema::PaperSchema()).value();
  for (int i = 0; i < rows; ++i) {
    Status st = big->file().Append(
        Tuple({Value(int32_t{i % 10000}),
               Value("payload-" + std::to_string(i % 97))}));
    if (!st.ok()) {
      std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!big->file().Flush().ok() || !big->ComputeStats().ok()) return 1;

  const int small_rows = rows / 10;
  Table* small = catalog.CreateTable("small", Schema::PaperSchema()).value();
  for (int i = 0; i < small_rows; ++i) {
    Status st = small->file().Append(
        Tuple({Value(int32_t{i % 10000}),
               Value("dim-" + std::to_string(i % 89))}));
    if (!st.ok()) return 1;
  }
  if (!small->file().Flush().ok() || !small->ComputeStats().ok()) return 1;

  std::vector<WorkloadResult> results;

  // 1% selective filter: the scan decodes and evaluates every row, the
  // root materializes almost nothing.
  results.push_back(RunWorkload(
      "scan_filter",
      *MakeSeqScan(big, Predicate::Between(0, 0, 99)),
      static_cast<uint64_t>(rows), reps));

  // Hash join under a count: build small, probe big, no materialization.
  results.push_back(RunWorkload(
      "hash_join_count",
      *MakeAggregate(MakeHashJoin(MakeSeqScan(big, Predicate()),
                                  MakeSeqScan(small, Predicate()), 0, 0),
                     AggFunc::kCount, 0, -1),
      static_cast<uint64_t>(rows + small_rows), reps));

  // Join feeding a grouped sum: exercises the full batch pipeline.
  results.push_back(RunWorkload(
      "join_group_sum",
      *MakeAggregate(MakeHashJoin(MakeSeqScan(big, Predicate()),
                                  MakeSeqScan(small, Predicate()), 0, 0),
                     AggFunc::kSum, 0, 0),
      static_cast<uint64_t>(rows + small_rows), reps));

  std::printf("== bench_exec: tuple vs vectorized (rows=%d, reps=%d)\n", rows,
              reps);
  std::printf("%-18s %14s %14s %8s\n", "workload", "tuple rows/s",
              "vector rows/s", "speedup");
  for (const auto& r : results) {
    std::printf("%-18s %14.0f %14.0f %7.2fx\n", r.name.c_str(),
                r.tuple_rows_per_sec, r.vectorized_rows_per_sec, r.speedup);
  }

  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"rows\":%d,\"reps\":%d,\"workloads\":[", rows, reps);
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"input_rows\":%llu,\"result_rows\":%llu,"
          "\"tuple_rows_per_sec\":%.1f,\"vectorized_rows_per_sec\":%.1f,"
          "\"speedup\":%.3f}",
          i == 0 ? "" : ",", r.name.c_str(),
          static_cast<unsigned long long>(r.input_rows),
          static_cast<unsigned long long>(r.result_rows),
          r.tuple_rows_per_sec, r.vectorized_rows_per_sec, r.speedup);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xprs

int main(int argc, char** argv) { return xprs::Run(argc, argv); }
