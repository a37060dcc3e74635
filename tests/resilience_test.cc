// Resilience subsystem tests: cancellation tokens and deadlines (checked
// from the serial executor, the parallel master and the SQL front door,
// always with zero pinned frames left behind), the whole-statement retry
// (RetryStatement), and buffer-pool backpressure with inline retry.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"
#include "parallel/master.h"
#include "resilience/cancellation.h"
#include "resilience/retry.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"
#include "util/rng.h"

namespace xprs {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    t_ = catalog_->CreateTable("t", Schema::PaperSchema()).value();
    for (int i = 0; i < 800; ++i) {
      ASSERT_TRUE(t_->file()
                      .Append(Tuple({Value(int32_t{i % 60}),
                                     Value(std::string(40, 'r'))}))
                      .ok());
    }
    ASSERT_TRUE(t_->file().Flush().ok());
    ASSERT_TRUE(t_->BuildIndex(0).ok());
    ASSERT_TRUE(t_->ComputeStats().ok());
  }

  std::unique_ptr<PlanNode> JoinPlan() {
    return MakeHashJoin(MakeSeqScan(t_, Predicate()),
                        MakeSeqScan(t_, Predicate()), 0, 0);
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
};

TEST_F(ResilienceTest, TokenLatchesFirstTerminalState) {
  CancellationToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());

  token.Cancel("user abort");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);

  // An expiring deadline cannot override the latched cancellation.
  token.SetDeadlineAfterMs(0);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);

  CancellationToken deadline;
  deadline.SetDeadlineAfterMs(0);
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  // ... and the deadline latches too: a later Cancel changes nothing.
  deadline.Cancel("too late");
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
}

// A 0 ms deadline must return DeadlineExceeded from the serial executor —
// not crash, not run to completion — with every pin released.
TEST_F(ResilienceTest, ZeroDeadlineSerialExecutor) {
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;
  auto rows = ExecutePlanSequential(*JoinPlan(), ctx);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// Same bar for the parallel master: the control loop is a cancellation
// point even while slaves run, and the cancel event is published.
TEST_F(ResilienceTest, ZeroDeadlineParallelMaster) {
  MetricsRegistry metrics;
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);
  CostModel model;
  MasterOptions options;
  options.ctx.pool = &pool;
  options.ctx.cancel = &token;
  options.obs.metrics = &metrics;
  auto plan = JoinPlan();
  ParallelMaster master(MachineConfig::PaperConfig(), &model, options);
  auto result = master.Run({{plan.get(), 1}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_GE(metrics.counter("resilience.cancel.deadline")->value(), 1u);
}

// The SQL front door honors the token from planning onwards.
TEST_F(ResilienceTest, SqlEngineHonorsDeadline) {
  CostModel model;
  SqlEngine engine(catalog_.get(), MachineConfig::PaperConfig(), &model);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);
  ExecContext ctx;
  ctx.cancel = &token;
  auto result = engine.Execute("SELECT * FROM t", ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Cancelling while a scan holds a pooled page: the scan serves out its
// current page, then surfaces Cancelled and drops the pin.
TEST_F(ResilienceTest, CancelMidScanReleasesPinnedPage) {
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;
  SeqScanOp scan(t_, Predicate(), ctx);
  ASSERT_TRUE(scan.Open().ok());
  Tuple tuple;
  bool eof = false;
  ASSERT_TRUE(scan.Next(&tuple, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_GT(pool.PinnedFrames(), 0u);  // the current page is pinned

  token.Cancel("user abort");
  Status status;
  do {
    status = scan.Next(&tuple, &eof);
  } while (status.ok() && !eof);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// Admission control: once pinned frames reach the soft limit, misses are
// refused with ResourceExhausted while hits on resident pages still serve
// (refusing re-pins would livelock the holder).
TEST_F(ResilienceTest, SoftPinLimitRefusesMissesNotHits) {
  BufferPool pool(array_.get(), 8);
  pool.SetSoftPinLimit(1);
  BlockId b0 = t_->file().BlockOf(0).value();
  BlockId b1 = t_->file().BlockOf(1).value();

  auto held = pool.Fetch(b0);
  ASSERT_TRUE(held.ok());
  auto refused = pool.Fetch(b1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  auto hit = pool.Fetch(b0);
  EXPECT_TRUE(hit.ok());
}

// FetchWithBackpressure keeps retrying while another query drains its
// pins, then succeeds; the waiting shows up as backpressure.retry events.
TEST_F(ResilienceTest, BackpressureRetryRecoversWhenPinsDrain) {
  MetricsRegistry metrics;
  BufferPool pool(array_.get(), 8);
  pool.SetSoftPinLimit(1);
  BlockId b0 = t_->file().BlockOf(0).value();
  BlockId b1 = t_->file().BlockOf(1).value();

  std::optional<PageHandle> held(pool.Fetch(b0).value());
  RetryPolicy retry;
  retry.max_attempts = 200;
  retry.initial_backoff_ms = 1;
  retry.backoff_multiplier = 1.0;
  retry.max_backoff_ms = 1;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.fetch_retry = &retry;
  ctx.obs.metrics = &metrics;

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    held.reset();
  });
  auto handle = FetchWithBackpressure(ctx, b1);
  releaser.join();
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_GE(metrics.counter("resilience.backpressure.retry")->value(), 1u);
}

// A transient failure is retried, emitting one serve.query_retry event per
// retry; a persistent one stops after max_attempts executions.
TEST_F(ResilienceTest, RetryStatementRetriesUpToMaxAttempts) {
  MetricsRegistry metrics;
  StatementRetry retry;
  retry.policy.max_attempts = 3;
  retry.policy.initial_backoff_ms = 0;
  retry.obs.metrics = &metrics;
  auto plan = MakeSeqScan(t_, Predicate());
  ExecContext ctx;

  int attempts = 0;
  array_->FailNextReads(1);
  auto rows = RetryStatement(
      retry, [&] { return ExecutePlanSequential(*plan, ctx); }, &attempts);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 800u);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(metrics.counter("resilience.serve.query_retry")->value(), 1u);

  array_->FailNextReads(1000000);
  auto failed = RetryStatement(
      retry, [&] { return ExecutePlanSequential(*plan, ctx); }, &attempts);
  array_->FailNextReads(0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(metrics.counter("resilience.serve.query_retry")->value(), 3u);
}

// A gate that refuses ends the statement with its status, without running
// it and without a retry; the outcomes it let through are recorded.
class ScriptedGate : public AttemptGate {
 public:
  explicit ScriptedGate(int allowed) : allowed_(allowed) {}
  Status Allow() override {
    if (allowed_-- > 0) return Status::OK();
    return Status::ResourceExhausted("gate closed");
  }
  void Record(const Status& outcome) override {
    recorded.push_back(outcome.code());
  }
  std::vector<StatusCode> recorded;

 private:
  int allowed_;
};

TEST_F(ResilienceTest, RetryStatementStopsAtAClosedGate) {
  ScriptedGate gate(/*allowed=*/1);
  StatementRetry retry;
  retry.policy.max_attempts = 5;
  retry.policy.initial_backoff_ms = 0;
  retry.gate = &gate;
  int attempts = 0;
  StatusOr<int> result = RetryStatement(
      retry, [] { return StatusOr<int>(Status::IoError("disk")); },
      &attempts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "gate closed");
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(gate.recorded, std::vector<StatusCode>{StatusCode::kIoError});
}

// Cancellation is terminal: the statement retry must not burn retry
// budget (or sleep) on a query the user already gave up on.
TEST_F(ResilienceTest, CancellationIsNeverRetried) {
  MetricsRegistry metrics;
  CancellationToken token;
  token.Cancel("user abort");
  ExecContext ctx;
  ctx.cancel = &token;
  StatementRetry retry;
  retry.cancel = &token;
  retry.obs.metrics = &metrics;
  auto plan = JoinPlan();
  int attempts = 0;
  auto rows = RetryStatement(
      retry, [&] { return ExecutePlanSequential(*plan, ctx); }, &attempts);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(metrics.counter("resilience.serve.query_retry")->value(), 0u);
}

}  // namespace
}  // namespace xprs
