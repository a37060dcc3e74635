// Tests for the dynamic parallelism adjustment protocols (§2.4, Figures
// 5/6) and the parallel fragment executor. The load-bearing property is
// exactly-once delivery: every page / index entry is handed out exactly
// once across any sequence of adjustments, under real concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "exec/profile.h"
#include "obs/metrics.h"
#include "parallel/fragment_run.h"
#include "parallel/page_partition.h"
#include "parallel/range_partition.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/fault_injector.h"
#include "util/rng.h"

namespace xprs {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Harness: runs slave threads against a page scan, lets the test fire
// adjustments (spawning any newly activated slots), and returns every page
// taken. Asserts nothing itself.
class PageScanHarness {
 public:
  explicit PageScanHarness(AdjustablePageScan* scan) : scan_(scan) {}

  void SpawnInitial() {
    for (int i = 0; i < scan_->parallelism(); ++i) Spawn(i);
  }

  void Adjust(int n) {
    auto r = scan_->Adjust(n);
    for (int slot : r.slots_to_start) Spawn(slot);
  }

  std::vector<uint32_t> Finish() {
    while (!scan_->Done()) SleepMs(1);
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
    return taken_;
  }

 private:
  void Spawn(int slot) {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.emplace_back([this, slot] {
      for (;;) {
        auto p = scan_->NextPage(slot);
        if (!p.has_value()) return;
        {
          std::lock_guard<std::mutex> l2(mu_);
          taken_.push_back(*p);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(150));
      }
    });
  }

  AdjustablePageScan* scan_;
  std::mutex mu_;
  std::vector<uint32_t> taken_;
  std::mutex threads_mu_;
  std::vector<std::thread> threads_;
};

void ExpectExactlyOnce(const std::vector<uint32_t>& taken, uint32_t n) {
  std::set<uint32_t> unique(taken.begin(), taken.end());
  EXPECT_EQ(taken.size(), n) << "pages delivered more or less than once";
  EXPECT_EQ(unique.size(), n);
  if (n > 0) {
    EXPECT_EQ(*unique.begin(), 0u);
    EXPECT_EQ(*unique.rbegin(), n - 1);
  }
}

TEST(PagePartitionTest, AllPagesExactlyOnceNoAdjustment) {
  AdjustablePageScan scan(97, 3, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  ExpectExactlyOnce(h.Finish(), 97);
}

TEST(PagePartitionTest, GrowMidScanCoversExactlyOnce) {
  AdjustablePageScan scan(400, 2, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  SleepMs(5);
  h.Adjust(6);
  ExpectExactlyOnce(h.Finish(), 400);
  EXPECT_EQ(scan.num_adjustments(), 1);
}

TEST(PagePartitionTest, ShrinkMidScanCoversExactlyOnce) {
  AdjustablePageScan scan(300, 6, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  SleepMs(3);
  h.Adjust(2);
  ExpectExactlyOnce(h.Finish(), 300);
}

TEST(PagePartitionTest, ManyRandomAdjustments) {
  AdjustablePageScan scan(1000, 4, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  Rng rng(99);
  for (int round = 0; round < 8 && !scan.Done(); ++round) {
    SleepMs(2);
    h.Adjust(static_cast<int>(rng.NextInt(1, 8)));
  }
  ExpectExactlyOnce(h.Finish(), 1000);
}

TEST(PagePartitionTest, SingleSlaveSingularPage) {
  AdjustablePageScan scan(1, 1, 4);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  ExpectExactlyOnce(h.Finish(), 1);
}

class RangePartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      int32_t key = static_cast<int32_t>(rng.NextInt(0, 499));
      index_.Insert(key, TupleId{static_cast<uint32_t>(i), 0});
      ++expected_[key];
    }
  }
  BTreeIndex index_;
  std::map<int32_t, int> expected_;
};

TEST_F(RangePartitionTest, EntriesExactlyOnceWithAdjustments) {
  AdjustableRangeScan scan(&index_, {0, 499}, 3, 8, /*chunk_entries=*/64);
  std::mutex mu;
  std::map<int32_t, int> got;
  std::vector<std::thread> threads;
  std::mutex threads_mu;

  std::function<void(int)> spawn = [&](int slot) {
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.emplace_back([&, slot] {
      for (;;) {
        auto chunk = scan.NextChunk(slot);
        if (!chunk.has_value()) return;
        std::map<int32_t, int> local;
        for (auto it = index_.Scan(chunk->lo, chunk->hi); it.Valid();
             it.Next())
          ++local[it.key()];
        {
          std::lock_guard<std::mutex> l2(mu);
          for (auto& [k, c] : local) got[k] += c;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  };
  for (int i = 0; i < 3; ++i) spawn(i);

  Rng rng(13);
  for (int round = 0; round < 6 && !scan.Done(); ++round) {
    SleepMs(2);
    auto r = scan.Adjust(static_cast<int>(rng.NextInt(1, 8)));
    for (int slot : r.slots_to_start) spawn(slot);
  }
  while (!scan.Done()) SleepMs(1);
  {
    std::lock_guard<std::mutex> lock(threads_mu);
    for (auto& t : threads)
      if (t.joinable()) t.join();
  }

  EXPECT_EQ(got, expected_) << "index entries not delivered exactly once";
}

TEST_F(RangePartitionTest, InitialPartitionIsBalanced) {
  AdjustableRangeScan scan(&index_, {0, 499}, 4, 8, /*chunk_entries=*/32);
  // Drain each slot single-threadedly (no adjustments -> no rendezvous).
  std::vector<size_t> per_slot(4, 0);
  for (int slot = 0; slot < 4; ++slot) {
    for (;;) {
      auto chunk = scan.NextChunk(slot);
      if (!chunk.has_value()) break;
      per_slot[slot] += index_.CountRange(chunk->lo, chunk->hi);
    }
  }
  size_t total = 0;
  for (size_t c : per_slot) {
    EXPECT_GT(c, 250u);  // ideal 500 each; allow slack for duplicates
    EXPECT_LT(c, 900u);
    total += c;
  }
  EXPECT_EQ(total, 2000u);
}

// ------------------------------------------------------ fragment run tests

class FragmentRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    r_ = catalog_->CreateTable("r", Schema::PaperSchema()).value();
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(r_->file()
                      .Append(Tuple({Value(int32_t{i % 500}),
                                     Value(std::string(20, 'x'))}))
                      .ok());
    }
    ASSERT_TRUE(r_->file().Flush().ok());
    ASSERT_TRUE(r_->BuildIndex(0).ok());
    ASSERT_TRUE(r_->ComputeStats().ok());

    s_ = catalog_->CreateTable("s", Schema::PaperSchema()).value();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(s_->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string(10, 'y'))}))
                      .ok());
    }
    ASSERT_TRUE(s_->file().Flush().ok());
    ASSERT_TRUE(s_->BuildIndex(0).ok());
    ASSERT_TRUE(s_->ComputeStats().ok());
  }

  static std::multiset<std::string> Normalize(const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const auto& t : rows) out.insert(t.ToString());
    return out;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* r_ = nullptr;
  Table* s_ = nullptr;
  ExecContext ctx_;
};

TEST_F(FragmentRunTest, SeqScanFragmentMatchesSequential) {
  auto plan = MakeSeqScan(r_, Predicate::Between(0, 100, 300));
  FragmentGraph graph = FragmentGraph::Decompose(*plan);

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 4;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  auto result = run.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
  EXPECT_EQ(result->tuples.size(), 201u * 6);  // 201 keys x 6 dups
}

// Holds the page reads of a heap file (every read, or only those of one
// block) until opened, and counts the threads it holds.
class ReadGate : public FaultInjector {
 public:
  ReadGate() = default;
  explicit ReadGate(BlockId only) : only_(only) {}

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  int waiting() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return waiting_;
  }
  Status BeforeRead(BlockId block) override {
    if (only_.has_value() && block != *only_) return Status::OK();
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiting_;
    cv_.wait(lock, [this] { return open_; });
    --waiting_;
    return Status::OK();
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }
  Status BeforeFetch(BlockId) override { return Status::OK(); }

 private:
  const std::optional<BlockId> only_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  int waiting_ = 0;
};

// Spins until `done` holds, for at most ten seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST_F(FragmentRunTest, AdjustmentsDuringRunPreserveResult) {
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 2;
  opts.max_slots = 8;
  opts.ctx = ctx_;
  // The slaves block in their first page read until the first adjustment
  // has landed, so the scan cannot finish before it.
  ReadGate gate;
  r_->file().SetFaultInjector(&gate);
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  // No slave owns a page, so Adjust re-weights the run's dispenser without
  // waiting for the slaves held mid-read: it returns with the new degree
  // in place before the gate opens.
  auto adjusted = std::async(std::launch::async, [&run] { run.Adjust(6); });
  EXPECT_EQ(adjusted.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(run.parallelism(), 6);
  gate.Open();
  adjusted.wait();
  run.Adjust(1);
  run.Adjust(4);
  auto result = run.Wait();
  r_->file().SetFaultInjector(nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3000u);
  EXPECT_GE(run.num_adjustments(), 1);
}

// Grow, shrink and grow again while every slave is held mid-read: each
// Adjust returns at once, the slots lowered and raised again keep their
// one thread (ParallelFragmentRun checks that no slot gets a second), and
// the run returns the reference rows with no page left pinned.
TEST_F(FragmentRunTest, GrowShrinkGrowKeepsOneThreadPerSlot) {
  BufferPool pool(array_.get(), 64);
  ExecContext ctx = ctx_;
  ctx.pool = &pool;
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  QueryProfile profile(plan.get());
  ctx.profile = &profile;

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 2;
  opts.max_slots = 4;
  opts.ctx = ctx;
  ReadGate gate;
  array_->SetFaultInjector(&gate);
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  EXPECT_TRUE(WaitFor([&gate] { return gate.waiting() == 2; }));
  auto adjusted = std::async(std::launch::async, [&run, &gate] {
    run.Adjust(4);
    WaitFor([&gate] { return gate.waiting() == 4; });
    run.Adjust(1);
    run.Adjust(4);
  });
  EXPECT_EQ(adjusted.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(gate.waiting(), 4);
  EXPECT_EQ(run.parallelism(), 4);
  gate.Open();
  adjusted.wait();
  auto result = run.Wait();
  array_->SetFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
  EXPECT_EQ(run.num_adjustments(), 3);
  ASSERT_EQ(profile.fragments().size(), 1u);
  EXPECT_EQ(profile.fragments()[0].slaves_spawned, 4);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(r_->file().live_scans(), 0u);
}

// While one slave is held in the read of its page, the run's registry
// position stays on that page, so the file's other scans see it as needed
// even after the other slaves have taken every later page.
TEST_F(FragmentRunTest, PageHeldMidReadIsNeededByOtherScans) {
  BufferPool pool(array_.get(), 64);
  ExecContext ctx = ctx_;
  ctx.pool = &pool;
  const uint32_t held = 2;
  ASSERT_GT(r_->file().num_pages(), held + 2);
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx;
  ReadGate gate(r_->file().BlockOf(held).value());
  array_->SetFaultInjector(&gate);
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  EXPECT_TRUE(WaitFor([&] {
    return gate.waiting() == 1 && run.Progress() == 1.0;
  }));
  EXPECT_TRUE(r_->file().PageNeededByOtherScan(0, held));
  EXPECT_EQ(r_->file().live_scans(), 1u);
  gate.Open();
  auto result = run.Wait();
  array_->SetFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tuples.size(), 3000u);
  EXPECT_FALSE(r_->file().PageNeededByOtherScan(0, held));
  EXPECT_EQ(r_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// A read fault fails the run and leaves the file's registry empty, so no
// later scan joins a position nobody advances.
TEST_F(FragmentRunTest, ReadFaultLeavesNoLiveScan) {
  BufferPool pool(array_.get(), 64);
  ExecContext ctx = ctx_;
  ctx.pool = &pool;
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx;
  ScriptedFaultInjector faults;
  ScriptedFaultInjector::Script script;
  script.fail_nth_read = 3;
  faults.Arm(script);
  array_->SetFaultInjector(&faults);
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  auto result = run.Wait();
  array_->SetFaultInjector(nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(faults.faults_injected(), 1u);
  EXPECT_EQ(r_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// --- parallel runs in the scan convoy ---------------------------------------

// A 64-page table t(a, b), four tuples per page, a = 0..255 in file order,
// on a throttled array whose reads take microseconds (so the pool reads
// ahead on its per-disk IO threads).
class ConvoyRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DiskTimings timings;
    timings.time_scale = 0.001;
    array_ = std::make_unique<DiskArray>(4, DiskMode::kThrottled, timings);
    catalog_ = std::make_unique<Catalog>(array_.get());
    t_ = catalog_->CreateTable("t", Schema::PaperSchema()).value();
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(t_->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string(1900, 'x'))}))
                      .ok());
    }
    ASSERT_TRUE(t_->file().Flush().ok());
    ASSERT_EQ(t_->file().num_pages(), 64u);
    plan_ = MakeSeqScan(t_, Predicate());
    graph_ = FragmentGraph::Decompose(*plan_);
  }

  // Runs the whole-table scan as one fragment of `slaves` slaves.
  StatusOr<TempResult> RunScan(const ExecContext& ctx, int slaves) {
    ParallelFragmentRun::Options opts;
    opts.initial_parallelism = slaves;
    opts.ctx = ctx;
    ParallelFragmentRun run(&graph_, graph_.root_fragment(), {}, opts);
    XPRS_RETURN_IF_ERROR(run.Start());
    return run.Wait();
  }

  static std::vector<int32_t> SortedKeys(const std::vector<Tuple>& rows) {
    std::vector<int32_t> keys;
    for (const Tuple& t : rows) keys.push_back(std::get<int32_t>(t.value(0)));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  static std::vector<int32_t> AllKeys() {
    std::vector<int32_t> keys(256);
    for (int i = 0; i < 256; ++i) keys[i] = i;
    return keys;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
  std::unique_ptr<PlanNode> plan_;
  FragmentGraph graph_;
};

// A 3-slave run that starts while a serial scan of the file is mid-file
// joins it: it starts at the serial scan's page, and between them the two
// read each page of the file from disk once.
TEST_F(ConvoyRunTest, RunJoinsAMidFileSerialScan) {
  BufferPool pool(array_.get(), 80);
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.obs.metrics = &metrics;
  array_->ResetStats();
  SeqScanOp serial(t_, Predicate(), ctx);
  std::vector<Tuple> serial_rows;
  Tuple row;
  bool eof = false;
  ASSERT_TRUE(serial.Open().ok());
  while (serial.pages_read() < 33) {  // mid-file: on page 32
    ASSERT_TRUE(serial.Next(&row, &eof).ok());
    ASSERT_FALSE(eof);
    serial_rows.push_back(row);
  }
  auto result = RunScan(ctx, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(metrics.counter("scan.sync_joins")->value(), 1u);
  EXPECT_EQ(SortedKeys(result->tuples), AllKeys());
  for (;;) {
    ASSERT_TRUE(serial.Next(&row, &eof).ok());
    if (eof) break;
    serial_rows.push_back(row);
  }
  ASSERT_TRUE(serial.Close().ok());
  EXPECT_EQ(SortedKeys(serial_rows), AllKeys());
  EXPECT_EQ(array_->total_stats().reads, 64u);
  EXPECT_EQ(t_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// A pooled parallel scan keeps the stripe busy with read-ahead, like a
// serial one, and leaves the registry when done.
TEST_F(ConvoyRunTest, PooledRunReadsAhead) {
  BufferPool pool(array_.get(), 32);
  ExecContext ctx;
  ctx.pool = &pool;
  auto result = RunScan(ctx, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedKeys(result->tuples), AllKeys());
  EXPECT_GT(pool.stats().prefetches, 0u);
  EXPECT_EQ(t_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// A page-partitioned scan of a file larger than the pool recycles the pages
// its slaves pass, so the small relation scanned before it stays resident.
TEST_F(FragmentRunTest, PartitionedScanOfALargeFileKeepsSmallOneCached) {
  const uint32_t small_pages = s_->file().num_pages();
  BufferPool pool(array_.get(), small_pages + 4);
  ASSERT_GT(r_->file().num_pages(), pool.num_frames());
  ExecContext ctx = ctx_;
  ctx.pool = &pool;
  auto small_scan = MakeSeqScan(s_, Predicate());
  auto small_rows = ExecutePlanSequential(*small_scan, ctx);
  ASSERT_TRUE(small_rows.ok());

  auto plan = MakeSeqScan(r_, Predicate::Between(0, 100, 300));
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  auto result = run.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
  EXPECT_GT(pool.stats().recycled, 0u);

  array_->ResetStats();
  auto again = ExecutePlanSequential(*small_scan, ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Normalize(*again), Normalize(*small_rows));
  EXPECT_EQ(array_->total_stats().reads, 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST_F(FragmentRunTest, IndexScanFragmentMatchesSequential) {
  auto plan = MakeIndexScan(r_, Predicate(), KeyRange{50, 150});
  FragmentGraph graph = FragmentGraph::Decompose(*plan);

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  run.Adjust(5);
  auto result = run.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
}

TEST_F(FragmentRunTest, SortRootFragmentProducesSortedOutput) {
  auto plan = MakeSort(MakeSeqScan(r_, Predicate::Between(0, 0, 100)), 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ASSERT_EQ(graph.fragments().size(), 1u);  // sort at the root: own fragment

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 4;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  auto result = run.Wait();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tuples.size(), 101u * 6);
  for (size_t i = 1; i < result->tuples.size(); ++i) {
    EXPECT_LE(std::get<int32_t>(result->tuples[i - 1].value(0)),
              std::get<int32_t>(result->tuples[i].value(0)));
  }
}

TEST_F(FragmentRunTest, HashJoinPlanViaParallelFragments) {
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ASSERT_EQ(graph.fragments().size(), 2u);
  int build_id = graph.fragment(graph.root_fragment()).deps[0];

  // Build fragment in parallel.
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx_;
  ParallelFragmentRun build(&graph, build_id, {}, opts);
  ASSERT_TRUE(build.Start().ok());
  auto build_result = build.Wait();
  ASSERT_TRUE(build_result.ok());

  // Probe fragment in parallel, with an adjustment mid-run.
  std::map<int, const TempResult*> inputs{{build_id, &build_result.value()}};
  ParallelFragmentRun probe(&graph, graph.root_fragment(), inputs, opts);
  ASSERT_TRUE(probe.Start().ok());
  probe.Adjust(6);
  auto probe_result = probe.Wait();
  ASSERT_TRUE(probe_result.ok());

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(probe_result->tuples), Normalize(*expected));
}

// Shared hash build: the slaves of one fragment run probe one table, so a
// parallel EXPLAIN ANALYZE counts exactly the serial build rows.
TEST_F(FragmentRunTest, ParallelHashJoinBuildsOnceLikeSerial) {
  CostModel model;
  SqlEngine engine(catalog_.get(), MachineConfig::PaperConfig(), &model);
  const char* sql = "SELECT r.a, s.b FROM r, s WHERE r.a = s.a";
  for (bool vectorized : {false, true}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "tuple");
    ExecContext ctx = ctx_;
    ctx.vectorized = vectorized;
    auto serial = engine.ExplainAnalyze(sql, ctx);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    MasterOptions master;
    master.ctx = ctx;
    master.max_slots = 4;
    auto parallel = engine.ExplainAnalyzeParallel(sql, master);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(Normalize(parallel->rows), Normalize(serial->rows));

    const auto& sops = serial->profile->operators();
    const auto& pops = parallel->profile->operators();
    ASSERT_EQ(sops.size(), pops.size());
    int joins = 0;
    for (size_t i = 0; i < sops.size(); ++i) {
      if (sops[i]->kind != PlanKind::kHashJoin) continue;
      ++joins;
      EXPECT_GT(sops[i]->build_rows.load(), 0u);
      EXPECT_EQ(pops[i]->build_rows.load(), sops[i]->build_rows.load())
          << pops[i]->label;
    }
    EXPECT_EQ(joins, 1);
    // The probe ran with several slaves, so a per-slave build would show.
    int max_slaves = 0;
    for (const FragmentStats& f : parallel->profile->fragments())
      max_slaves = std::max(max_slaves, f.slaves_spawned);
    EXPECT_GT(max_slaves, 1);
  }
}

TEST_F(FragmentRunTest, SharedBuildSurvivesAdjustmentsMidProbe) {
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  const int build_id = graph.fragment(graph.root_fragment()).deps[0];
  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());

  for (bool vectorized : {false, true}) {
    SCOPED_TRACE(vectorized ? "vectorized" : "tuple");
    QueryProfile profile(plan.get());
    ParallelFragmentRun::Options opts;
    opts.initial_parallelism = 4;
    opts.max_slots = 8;
    opts.ctx = ctx_;
    opts.ctx.vectorized = vectorized;
    opts.ctx.profile = &profile;
    ParallelFragmentRun build(&graph, build_id, {}, opts);
    ASSERT_TRUE(build.Start().ok());
    auto build_result = build.Wait();
    ASSERT_TRUE(build_result.ok());

    std::map<int, const TempResult*> inputs{{build_id, &build_result.value()}};
    ParallelFragmentRun probe(&graph, graph.root_fragment(), inputs, opts);
    ASSERT_TRUE(probe.Start().ok());
    probe.Adjust(8);
    probe.Adjust(1);
    probe.Adjust(6);
    auto probe_result = probe.Wait();
    ASSERT_TRUE(probe_result.ok()) << probe_result.status().ToString();

    EXPECT_EQ(Normalize(probe_result->tuples), Normalize(*expected));
    EXPECT_EQ(profile.StatsFor(plan.get())->build_rows.load(), 400u);
  }
}

TEST_F(FragmentRunTest, TempDrivenFragmentPartitionsBatches) {
  // Fragment whose driving leaf is a materialized input: build a sort
  // below a hash join probe... simplest: merge join of two sorts, top
  // fragment driven by the left sort's output.
  auto plan = MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate()), 0),
                            MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ASSERT_EQ(graph.fragments().size(), 3u);

  std::map<int, TempResult> results;
  for (int id : graph.TopologicalOrder()) {
    std::map<int, const TempResult*> inputs;
    for (int dep : graph.fragment(id).deps) inputs[dep] = &results.at(dep);
    ParallelFragmentRun::Options opts;
    opts.initial_parallelism = id == graph.root_fragment() ? 1 : 3;
    opts.ctx = ctx_;
    ParallelFragmentRun run(&graph, id, inputs, opts);
    ASSERT_TRUE(run.Start().ok());
    auto r = run.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results[id] = std::move(r).value();
  }

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(results.at(graph.root_fragment()).tuples),
            Normalize(*expected));
}

TEST_F(FragmentRunTest, ProgressReachesOne) {
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 2;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  EXPECT_DOUBLE_EQ(run.Progress(), 0.0);
  ASSERT_TRUE(run.Start().ok());
  ASSERT_TRUE(run.Wait().ok());
  EXPECT_DOUBLE_EQ(run.Progress(), 1.0);
  EXPECT_TRUE(run.finished());
}

}  // namespace
}  // namespace xprs
