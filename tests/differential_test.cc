// Differential correctness harness (fast tier): fixed-seed random queries
// run through the serial reference, the fragmented executor, parallel
// fragment runs at several degrees, the full master control loop, the
// spill path and the buffer pool — all result sets must agree — plus the
// storage fault-injection cases and the §2.2 io conservation checks.
//
// A failure prints the offending seed; replay any run with
// XPRS_SEED=<seed> (TestSeed mixes it into every site).

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <vector>

#include "util/check.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/disk_array.h"
#include "testing/differential.h"
#include "testing/query_gen.h"
#include "util/rng.h"
#include "workload/relations.h"

namespace xprs {
namespace {

struct Fixture {
  DiskArray array{4, DiskMode::kInstant};
  Catalog catalog{&array};
  std::vector<Table*> tables;

  explicit Fixture(uint64_t seed,
                   GeneratedWorkloadOptions workload = {}) {
    Rng rng(seed);
    auto built = BuildGeneratedWorkload(&catalog, workload, &rng);
    XPRS_CHECK_OK(built.status());
    tables = built.value();
  }
};

// Both 200-query bars run their queries over four populations of 50.
// Every other population is wide, as in stress_differential: the default
// relations fit on one page, while wide tuples spread the same row counts
// over several pages, so the pooled modes' small pools evict and recycle.
constexpr int kPopulations = 4;
constexpr int kQueriesPerPopulation = 50;

GeneratedWorkloadOptions Population(int index) {
  GeneratedWorkloadOptions workload;
  if (index % 2 == 1) workload.max_text_width = 400;
  return workload;
}

// The acceptance bar: 200+ generated queries, three parallel degrees, the
// master, the spill path and the pool, zero mismatches.
TEST(DifferentialTest, TwoHundredGeneratedQueries) {
  const uint64_t seed = TestSeed(0xD1FF0001);
  DifferentialOptions options;  // degrees {2, 3, 5}
  uint64_t plans = 0, executions = 0, recycled = 0;
  for (int pop = 0; pop < kPopulations; ++pop) {
    const uint64_t pop_seed = seed + static_cast<uint64_t>(pop);
    Fixture fx(pop_seed, Population(pop));
    DifferentialOracle oracle(&fx.array, options, pop_seed ^ 1);
    QueryGenerator gen(fx.tables, QueryGenerator::Options(), pop_seed ^ 2);
    for (int i = 0; i < kQueriesPerPopulation; ++i) {
      std::unique_ptr<PlanNode> plan = gen.NextPlan();
      Status status = oracle.CheckPlan(*plan);
      ASSERT_TRUE(status.ok()) << "population " << pop << " query " << i
                               << " (seed " << seed << "): "
                               << status.ToString();
    }
    const DifferentialReport& report = oracle.report();
    plans += report.plans_checked;
    executions += report.executions_compared;
    recycled += report.pool_recycled;
    std::cout << "differential report " << pop << ": " << report.ToString()
              << "\n";
  }
  EXPECT_EQ(plans, 200u);
  // reference + fragmented + 3 degrees + master + spill + pooled = 8.
  EXPECT_GE(executions, 200u * 8);
  EXPECT_GT(recycled, 0u);
}

// Chaos acceptance bar: 200 fixed-seed queries re-run through every mode
// with a 2% random read-fault injector armed the whole time. Every run
// must match the serial reference or fail with a retryable status, and
// the statement retry's recoveries must be visible downstream as
// resilience.serve.query_retry metrics and trace events.
TEST(DifferentialTest, TwoHundredChaosQueries) {
  const uint64_t seed = TestSeed(0xD1FF0008);
  MetricsRegistry metrics;
  MemoryTraceRecorder trace;
  DifferentialOptions options;
  options.chaos_read_fault_rate = 0.02;
  options.chaos_obs.metrics = &metrics;
  options.chaos_obs.trace = &trace;
  uint64_t plans = 0, faults = 0, recovered = 0, recycled = 0;
  for (int pop = 0; pop < kPopulations; ++pop) {
    const uint64_t pop_seed = seed + static_cast<uint64_t>(pop);
    Fixture fx(pop_seed, Population(pop));
    DifferentialOracle oracle(&fx.array, options, pop_seed ^ 1);
    QueryGenerator gen(fx.tables, QueryGenerator::Options(), pop_seed ^ 2);
    for (int i = 0; i < kQueriesPerPopulation; ++i) {
      std::unique_ptr<PlanNode> plan = gen.NextPlan();
      Status status = oracle.CheckPlanChaos(*plan);
      ASSERT_TRUE(status.ok()) << "population " << pop << " query " << i
                               << " (seed " << seed << "): "
                               << status.ToString();
    }
    const DifferentialReport& report = oracle.report();
    plans += report.plans_checked;
    faults += report.faults_injected;
    recovered += report.chaos_recovered;
    recycled += report.pool_recycled;
    std::cout << "chaos report " << pop << ": " << report.ToString() << "\n";
  }
  EXPECT_EQ(plans, 200u);
  EXPECT_GT(faults, 0u);
  // The retried modes must actually have absorbed faults and still
  // matched the reference — not merely failed retryably every time.
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(recycled, 0u);

  const uint64_t retries =
      metrics.counter("resilience.serve.query_retry")->value();
  EXPECT_GT(retries, 0u);
  size_t resilience_events = 0;
  for (const TraceEvent& event : trace.snapshot()) {
    if (event.category == "resilience") ++resilience_events;
  }
  EXPECT_GE(resilience_events, retries);
  std::cout << "chaos retries=" << retries << "\n";
}

// Wide relations in small pools: the pooled modes' pools hold less than
// the largest relation, its scans put the pages they pass on the done
// list, and claims reuse those frames, with and without read faults.
TEST(DifferentialTest, WideRelationsRecycleInSmallPools) {
  const uint64_t seed = TestSeed(0xD1FF000A);
  GeneratedWorkloadOptions workload;
  workload.max_text_width = 400;
  Fixture fx(seed, workload);
  DifferentialOptions options;
  options.chaos_read_fault_rate = 0.02;
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  QueryGenerator gen(fx.tables, QueryGenerator::Options(), seed ^ 2);
  for (int i = 0; i < 60; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckPlan(*plan);
    if (status.ok()) status = oracle.CheckPlanChaos(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
  EXPECT_GT(oracle.report().pool_recycled, 0u);
  std::cout << "wide report: " << oracle.report().ToString() << "\n";
}

// NULL join keys and NULL aggregate inputs must behave identically in
// every mode (serial skips them; partitioned runs must too).
TEST(DifferentialTest, NullHeavyRelations) {
  const uint64_t seed = TestSeed(0xD1FF0002);
  GeneratedWorkloadOptions workload;
  workload.max_null_key_fraction = 0.6;
  Fixture fx(seed, workload);
  DifferentialOracle oracle(&fx.array, DifferentialOptions(), seed ^ 1);
  QueryGenerator::Options gen_options;
  gen_options.max_joins = 2;
  gen_options.aggregate_prob = 0.6;
  QueryGenerator gen(fx.tables, gen_options, seed ^ 2);
  for (int i = 0; i < 40; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckPlan(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
}

// §2.2: page partitioning at any degree reads exactly the serial scan's
// pages — io demand is a property of the task, not of its parallelism.
TEST(DifferentialTest, ScanIoConservation) {
  const uint64_t seed = TestSeed(0xD1FF0003);
  Fixture fx(seed);
  DifferentialOptions options;
  options.degrees = {2, 3, 4, 7};
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  for (Table* table : fx.tables) {
    Status status = oracle.CheckScanIoConservation(table);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// Read and fetch hooks: the armed fault must surface as Status, leave the
// pool with zero pins, and the transient retry must match the reference.
TEST(DifferentialTest, ReadAndFetchFaultsSurfaceAsStatus) {
  const uint64_t seed = TestSeed(0xD1FF0004);
  Fixture fx(seed);
  DifferentialOracle oracle(&fx.array, DifferentialOptions(), seed ^ 1);
  QueryGenerator gen(fx.tables, QueryGenerator::Options(), seed ^ 2);
  for (int i = 0; i < 10; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckFaultSurfacing(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
  // The first read and the first pool fetch fire deterministically on
  // every non-empty plan; 10 plans guarantee both hooks really injected.
  EXPECT_GE(oracle.report().fault_cases, 30u);
  EXPECT_GE(oracle.report().faults_injected, 2u);
}

// Write hook, via a plan that is guaranteed to spill: a Sort whose input
// exceeds the in-memory budget writes runs to the temp array, and the
// first of those writes is torn short.
TEST(DifferentialTest, ShortWriteDuringSpillSurfacesAsStatus) {
  const uint64_t seed = TestSeed(0xD1FF0005);
  Fixture fx(seed);
  DifferentialOptions options;
  options.spill_memory_tuples = 16;  // every table here exceeds this
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  std::unique_ptr<PlanNode> plan =
      MakeSort(MakeSeqScan(fx.tables[0], Predicate()), 0);
  const uint64_t before = oracle.report().faults_injected;
  ASSERT_TRUE(oracle.CheckFaultSurfacing(*plan).ok());
  EXPECT_GE(oracle.report().faults_injected, before + 3);  // all three hooks
}

// Write hook at the storage layer proper: a torn write during bulk load
// must fail the loader with a Status, not corrupt silently.
TEST(DifferentialTest, ShortWriteDuringBulkLoadSurfacesAsStatus) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Status status =
      CheckShortWriteSurfacing(&catalog, "torn", TestSeed(0xD1FF0006));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Same seed, same tables, same options => identical plan sequence; the
// printed-seed replay contract rests on this.
TEST(DifferentialTest, GeneratorIsDeterministic) {
  const uint64_t seed = TestSeed(0xD1FF0007);
  Fixture fx(seed);
  QueryGenerator a(fx.tables, QueryGenerator::Options(), 99);
  QueryGenerator b(fx.tables, QueryGenerator::Options(), 99);
  for (int i = 0; i < 25; ++i)
    EXPECT_EQ(a.NextPlan()->ToString(), b.NextPlan()->ToString());
}

}  // namespace
}  // namespace xprs
