// Integration tests: the master backend running the full control loop —
// optimizer-estimated profiles, adaptive scheduling, real slave threads,
// dynamic adjustment — against every scheduling policy, with results
// cross-checked against the sequential reference executor.

#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "opt/two_phase.h"
#include "parallel/master.h"
#include "util/rng.h"

namespace xprs {
namespace {

class MasterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    big_ = Load("big", 2000, 60, 300);
    wide_ = Load("wide", 200, 3000, 300);
    small_ = Load("small", 300, 10, 300);
  }

  Table* Load(const std::string& name, int tuples, int width, int key_mod) {
    Table* t = catalog_->CreateTable(name, Schema::PaperSchema()).value();
    Rng rng(name.size() * 31 + name[0]);
    for (int i = 0; i < tuples; ++i) {
      int32_t key = static_cast<int32_t>(rng.NextInt(0, key_mod - 1));
      EXPECT_TRUE(
          t->file()
              .Append(Tuple({Value(key), Value(std::string(width, 'w'))}))
              .ok());
    }
    EXPECT_TRUE(t->file().Flush().ok());
    EXPECT_TRUE(t->BuildIndex(0).ok());
    EXPECT_TRUE(t->ComputeStats().ok());
    return t;
  }

  static std::multiset<std::string> Normalize(const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const auto& t : rows) out.insert(t.ToString());
    return out;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* big_ = nullptr;
  Table* wide_ = nullptr;
  Table* small_ = nullptr;
  CostModel model_;
  ExecContext ctx_;
};

class MasterPolicyTest
    : public MasterTest,
      public ::testing::WithParamInterface<SchedPolicy> {};

TEST_P(MasterPolicyTest, MultiQueryBatchProducesCorrectResults) {
  // Three single-fragment selection queries (the §3 task shape) plus one
  // two-fragment hash-join query.
  auto q1 = MakeSeqScan(big_, Predicate::Between(0, 0, 150));
  auto q2 = MakeSeqScan(wide_, Predicate());
  auto q3 = MakeIndexScan(small_, Predicate(), KeyRange{10, 200});
  auto q4 = MakeHashJoin(MakeSeqScan(big_, Predicate::Between(0, 0, 50)),
                         MakeSeqScan(small_, Predicate()), 0, 0);

  MasterOptions options;
  options.sched.policy = GetParam();
  options.ctx = ctx_;
  ParallelMaster master(MachineConfig::PaperConfig(), &model_, options);

  auto result = master.Run({{q1.get(), 1}, {q2.get(), 2}, {q3.get(), 3},
                            {q4.get(), 4}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  for (const auto& [qid, plan] :
       std::vector<std::pair<int64_t, const PlanNode*>>{
           {1, q1.get()}, {2, q2.get()}, {3, q3.get()}, {4, q4.get()}}) {
    auto expected = ExecutePlanSequential(*plan, ctx_);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(Normalize(result->query_results.at(qid)),
              Normalize(*expected))
        << "query " << qid << " under "
        << SchedPolicyName(GetParam());
  }
  EXPECT_GT(result->elapsed_seconds, 0.0);
  if (GetParam() != SchedPolicy::kInterWithAdj) {
    EXPECT_EQ(result->num_adjustments, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MasterPolicyTest,
                         ::testing::Values(SchedPolicy::kIntraOnly,
                                           SchedPolicy::kInterWithoutAdj,
                                           SchedPolicy::kInterWithAdj));

TEST_F(MasterTest, DependenciesRespectedAcrossFragments) {
  // A bushy 3-way plan: its build fragments must complete before probes.
  auto plan = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(big_, Predicate::Between(0, 0, 80)),
                   MakeSeqScan(small_, Predicate()), 0, 0),
      MakeSeqScan(wide_, Predicate::Between(0, 0, 120)), 0, 0);

  MasterOptions options;
  options.sched.policy = SchedPolicy::kInterWithAdj;
  options.ctx = ctx_;
  ParallelMaster master(MachineConfig::PaperConfig(), &model_, options);
  auto result = master.Run({{plan.get(), 42}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->query_results.at(42)), Normalize(*expected));
}

TEST_F(MasterTest, OptimizerToMasterEndToEnd) {
  // Full stack: QuerySpec -> two-phase optimizer -> master execution.
  QuerySpec q;
  q.relations = {{big_, Predicate::Between(0, 0, 100)},
                 {small_, Predicate()},
                 {wide_, Predicate()}};
  q.joins = {{0, 0, 1, 0}, {1, 0, 2, 0}};

  TwoPhaseOptimizer optimizer(MachineConfig::PaperConfig(), &model_);
  auto optimized = optimizer.Optimize(q, TreeShape::kBushy);
  ASSERT_TRUE(optimized.ok());

  MasterOptions options;
  options.ctx = ctx_;
  ParallelMaster master(MachineConfig::PaperConfig(), &model_, options);
  auto result = master.Run({{optimized->plan.get(), 7}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*optimized->plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->query_results.at(7)), Normalize(*expected));
  EXPECT_FALSE(expected->empty());
}

TEST_F(MasterTest, ThrottledDisksStillCorrect) {
  // Same pipeline over a throttled (really-sleeping) disk array, scaled
  // down so the test stays fast; exercises io contention for real.
  DiskTimings timings;
  timings.time_scale = 0.02;
  DiskArray slow(4, DiskMode::kThrottled, timings);
  Catalog catalog(&slow);
  Table* t = catalog.CreateTable("t", Schema::PaperSchema()).value();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(t->file()
                    .Append(Tuple({Value(int32_t{i % 50}),
                                   Value(std::string(200, 'z'))}))
                    .ok());
  }
  ASSERT_TRUE(t->file().Flush().ok());
  ASSERT_TRUE(t->BuildIndex(0).ok());
  ASSERT_TRUE(t->ComputeStats().ok());

  auto q1 = MakeSeqScan(t, Predicate::Between(0, 0, 25));
  auto q2 = MakeIndexScan(t, Predicate(), KeyRange{30, 40});

  MasterOptions options;
  options.sched.policy = SchedPolicy::kInterWithAdj;
  ParallelMaster master(MachineConfig::PaperConfig(), &model_, options);
  auto result = master.Run({{q1.get(), 1}, {q2.get(), 2}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExecContext instant_ctx;
  auto e1 = ExecutePlanSequential(*q1, instant_ctx);
  auto e2 = ExecutePlanSequential(*q2, instant_ctx);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(Normalize(result->query_results.at(1)), Normalize(*e1));
  EXPECT_EQ(Normalize(result->query_results.at(2)), Normalize(*e2));
  // The disks really slept.
  EXPECT_GT(slow.total_stats().busy_seconds, 0.0);
}

TEST_F(MasterTest, MaxSlotsCapsEveryFragmentRun) {
  // The scheduler sees 8 CPUs and may command up to 8 slaves per fragment;
  // max_slots = 2 (a served grant of 2) must cap every run anyway.
  MachineConfig machine = MachineConfig::PaperConfig();
  machine.num_cpus = 8;
  auto q = MakeAggregate(MakeHashJoin(MakeSeqScan(big_, Predicate()),
                                      MakeSeqScan(small_, Predicate()), 0, 0),
                         AggFunc::kCount, 0, -1);
  QueryProfile profile(q.get());
  MasterOptions options;
  options.max_slots = 2;
  options.ctx.profile = &profile;
  ParallelMaster master(machine, &model_, options);
  auto result = master.Run({{q.get(), 1}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*q, ExecContext());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->query_results.at(1)), Normalize(*expected));
  const std::vector<FragmentStats> frags = profile.fragments();
  ASSERT_EQ(frags.size(), FragmentGraph::Decompose(*q).fragments().size());
  for (const FragmentStats& f : frags) {
    EXPECT_LE(f.slaves_spawned, 2) << f.root_label;
    EXPECT_LE(f.initial_parallelism, 2) << f.root_label;
  }
}

TEST_F(MasterTest, SharedBufferPoolAcrossBackends) {
  BufferPool pool(array_.get(), 256);
  MasterOptions options;
  options.ctx.pool = &pool;
  ParallelMaster master(MachineConfig::PaperConfig(), &model_, options);

  auto q = MakeHashJoin(MakeSeqScan(big_, Predicate()),
                        MakeSeqScan(small_, Predicate()), 0, 0);
  auto result = master.Run({{q.get(), 1}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExecContext plain;
  auto expected = ExecutePlanSequential(*q, plain);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->query_results.at(1)), Normalize(*expected));
  EXPECT_GT(pool.stats().hits + pool.stats().misses, 0u);
}

}  // namespace
}  // namespace xprs
