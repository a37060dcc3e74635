// Tests for expressions, plans, operators, and fragment decomposition.
// Join operators are cross-checked against each other and fragmented
// execution against the sequential reference executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "exec/fragment.h"
#include "exec/plan.h"
#include "exec/scan_cursor.h"
#include "resilience/cancellation.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace xprs {
namespace {

// Fixture: a small database with two relations.
//   r(a, b): a = 0..199 (each value once), b short text
//   s(a, b): a = 0..99 duplicated twice, b short text
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());

    r_ = catalog_->CreateTable("r", Schema::PaperSchema()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(r_->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string("r") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(r_->file().Flush().ok());
    ASSERT_TRUE(r_->BuildIndex(0).ok());
    ASSERT_TRUE(r_->ComputeStats().ok());

    s_ = catalog_->CreateTable("s", Schema::PaperSchema()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(s_->file()
                      .Append(Tuple({Value(int32_t{i % 100}),
                                     Value(std::string("s") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(s_->file().Flush().ok());
    ASSERT_TRUE(s_->BuildIndex(0).ok());
    ASSERT_TRUE(s_->ComputeStats().ok());
  }

  // Normalizes results for order-insensitive comparison.
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

TEST(PredicateTest, TrueAcceptsEverything) {
  Predicate p;
  EXPECT_TRUE(p.IsTrue());
  EXPECT_TRUE(p.Eval(Tuple({Value(int32_t{1})})));
}

TEST(PredicateTest, CompareEvaluates) {
  Tuple t({Value(int32_t{10}), Value(std::string("x"))});
  EXPECT_TRUE(Predicate::Compare(0, CmpOp::kEq, Value(int32_t{10})).Eval(t));
  EXPECT_FALSE(Predicate::Compare(0, CmpOp::kLt, Value(int32_t{10})).Eval(t));
  EXPECT_TRUE(Predicate::Compare(0, CmpOp::kLe, Value(int32_t{10})).Eval(t));
  EXPECT_TRUE(
      Predicate::Compare(1, CmpOp::kEq, Value(std::string("x"))).Eval(t));
}

TEST(PredicateTest, NullComparesFalse) {
  Tuple t({Value(std::monostate{})});
  EXPECT_FALSE(Predicate::Compare(0, CmpOp::kEq, Value(int32_t{0})).Eval(t));
  EXPECT_FALSE(Predicate::Compare(0, CmpOp::kNe, Value(int32_t{0})).Eval(t));
}

TEST(PredicateTest, BetweenAndLogic) {
  Predicate p = Predicate::Between(0, 5, 10);
  EXPECT_TRUE(p.Eval(Tuple({Value(int32_t{5})})));
  EXPECT_TRUE(p.Eval(Tuple({Value(int32_t{10})})));
  EXPECT_FALSE(p.Eval(Tuple({Value(int32_t{11})})));
  Predicate q = Predicate::Or(Predicate::Compare(0, CmpOp::kEq, Value(int32_t{1})),
                              Predicate::Compare(0, CmpOp::kEq, Value(int32_t{2})));
  EXPECT_TRUE(q.Eval(Tuple({Value(int32_t{2})})));
  EXPECT_FALSE(q.Eval(Tuple({Value(int32_t{3})})));
}

TEST(PredicateTest, ExtractKeyRangeNarrows) {
  KeyRange range{INT32_MIN, INT32_MAX};
  Predicate p = Predicate::Between(0, 5, 10);
  EXPECT_TRUE(p.ExtractKeyRange(0, &range));
  EXPECT_EQ(range.lo, 5);
  EXPECT_EQ(range.hi, 10);

  KeyRange range2{INT32_MIN, INT32_MAX};
  Predicate lt = Predicate::Compare(0, CmpOp::kLt, Value(int32_t{7}));
  EXPECT_TRUE(lt.ExtractKeyRange(0, &range2));
  EXPECT_EQ(range2.hi, 6);

  KeyRange range3{INT32_MIN, INT32_MAX};
  EXPECT_FALSE(lt.ExtractKeyRange(1, &range3));  // other column
  Predicate orp = Predicate::Or(lt, lt);
  EXPECT_FALSE(orp.ExtractKeyRange(0, &range3));  // OR is not a range
}

TEST(PredicateTest, ShiftColumns) {
  Predicate p = Predicate::Compare(1, CmpOp::kEq, Value(int32_t{5}));
  Predicate shifted = p.ShiftColumns(2);
  Tuple t({Value(int32_t{0}), Value(int32_t{0}), Value(int32_t{0}),
           Value(int32_t{5})});
  EXPECT_TRUE(shifted.Eval(t));
}

TEST_F(ExecTest, SeqScanReadsEverything) {
  SeqScanOp scan(r_, Predicate(), ctx_);
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 200u);
  EXPECT_EQ(scan.pages_read(), r_->file().num_pages());
}

TEST_F(ExecTest, SeqScanAppliesPredicate) {
  SeqScanOp scan(r_, Predicate::Between(0, 50, 59), ctx_);
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST_F(ExecTest, PartitionedScansUnionToFullScan) {
  for (int n : {2, 3, 4, 7}) {
    std::multiset<std::string> combined;
    for (int i = 0; i < n; ++i) {
      SeqScanOp scan(r_, Predicate(), ctx_, n, i);
      auto rows = Drain(&scan);
      ASSERT_TRUE(rows.ok());
      for (const auto& t : *rows) combined.insert(t.ToString());
    }
    EXPECT_EQ(combined.size(), 200u) << "n=" << n;
  }
}

TEST_F(ExecTest, IndexScanMatchesSeqScanFilter) {
  KeyRange range{20, 40};
  IndexScanOp iscan(r_, Predicate(), range, ctx_);
  auto via_index = Drain(&iscan);
  ASSERT_TRUE(via_index.ok());

  SeqScanOp sscan(r_, Predicate::Between(0, 20, 40), ctx_);
  auto via_seq = Drain(&sscan);
  ASSERT_TRUE(via_seq.ok());

  EXPECT_EQ(Normalize(*via_index), Normalize(*via_seq));
  EXPECT_EQ(iscan.tuples_fetched(), 21u);
}

TEST_F(ExecTest, IndexScanPaysRandomIo) {
  array_->ResetStats();
  KeyRange range{0, 199};
  IndexScanOp scan(r_, Predicate(), range, ctx_);
  ASSERT_TRUE(Drain(&scan).ok());
  DiskStats stats = array_->total_stats();
  // One page read per tuple, overwhelmingly random/short-seek.
  EXPECT_EQ(stats.reads, 200u);
  EXPECT_GT(stats.rand_reads + stats.almost_seq_reads, 150u);
}

TEST_F(ExecTest, FilterOp) {
  auto scan = std::make_unique<SeqScanOp>(r_, Predicate(), ctx_);
  FilterOp filter(std::move(scan),
                  Predicate::Compare(0, CmpOp::kLt, Value(int32_t{5})));
  auto rows = Drain(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST_F(ExecTest, SortOrdersRows) {
  auto scan = std::make_unique<SeqScanOp>(s_, Predicate(), ctx_);
  SortOp sort(std::move(scan), 0);
  auto rows = Drain(&sort);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 200u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE(std::get<int32_t>((*rows)[i - 1].value(0)),
              std::get<int32_t>((*rows)[i].value(0)));
  }
}

// All three join algorithms must agree with each other.
TEST_F(ExecTest, JoinAlgorithmsAgree) {
  auto run = [&](PlanKind kind) {
    std::unique_ptr<PlanNode> plan;
    auto r_scan = MakeSeqScan(r_, Predicate::Between(0, 0, 80));
    auto s_scan = MakeSeqScan(s_, Predicate());
    switch (kind) {
      case PlanKind::kNestLoopJoin:
        plan = MakeNestLoopJoin(std::move(r_scan), std::move(s_scan), 0, 0);
        break;
      case PlanKind::kHashJoin:
        plan = MakeHashJoin(std::move(r_scan), std::move(s_scan), 0, 0);
        break;
      case PlanKind::kMergeJoin:
        plan = MakeMergeJoin(MakeSort(std::move(r_scan), 0),
                             MakeSort(std::move(s_scan), 0), 0, 0);
        break;
      default:
        ADD_FAILURE();
    }
    auto rows = ExecutePlanSequential(*plan, ctx_);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return Normalize(*rows);
  };

  auto nl = run(PlanKind::kNestLoopJoin);
  auto hj = run(PlanKind::kHashJoin);
  auto mj = run(PlanKind::kMergeJoin);
  // r.a in [0,80] joins s.a in {0..99} x2 -> 81 keys x 2 = 162 rows.
  EXPECT_EQ(nl.size(), 162u);
  EXPECT_EQ(nl, hj);
  EXPECT_EQ(nl, mj);
}

TEST_F(ExecTest, JoinOutputSchemaIsConcatenation) {
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_EQ(plan->output_schema.num_columns(), 4u);
}

TEST_F(ExecTest, IsLeftDeepClassification) {
  auto left_deep = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_TRUE(IsLeftDeep(*left_deep));

  auto bushy = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      0, 0);
  EXPECT_FALSE(IsLeftDeep(*bushy));
  EXPECT_EQ(PlanSize(*bushy), 7u);
}

TEST_F(ExecTest, CloneIsDeepAndEquivalent) {
  auto plan = MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate()), 0),
                            MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  auto copy = plan->Clone();
  auto a = ExecutePlanSequential(*plan, ctx_);
  auto b = ExecutePlanSequential(*copy, ctx_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Normalize(*a), Normalize(*b));
}

TEST_F(ExecTest, FragmentDecompositionCounts) {
  // Single scan: one fragment.
  auto scan_plan = MakeSeqScan(r_, Predicate());
  EXPECT_EQ(FragmentGraph::Decompose(*scan_plan).fragments().size(), 1u);

  // Hash join: probe fragment + build fragment.
  auto hj = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                         MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_EQ(FragmentGraph::Decompose(*hj).fragments().size(), 2u);

  // Merge join of two sorts: top fragment + two sort fragments.
  auto mj = MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate()), 0),
                          MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  FragmentGraph g = FragmentGraph::Decompose(*mj);
  EXPECT_EQ(g.fragments().size(), 3u);
  EXPECT_EQ(g.fragment(g.root_fragment()).deps.size(), 2u);

  // Nest loop: everything pipelines -> one fragment.
  auto nl = MakeNestLoopJoin(MakeSeqScan(r_, Predicate()),
                             MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_EQ(FragmentGraph::Decompose(*nl).fragments().size(), 1u);
}

TEST_F(ExecTest, TopologicalOrderRespectsDeps) {
  auto plan = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  FragmentGraph g = FragmentGraph::Decompose(*plan);
  auto order = g.TopologicalOrder();
  std::map<int, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& f : g.fragments())
    for (int dep : f.deps) EXPECT_LT(pos[dep], pos[f.id]);
}

TEST_F(ExecTest, FragmentedExecutionMatchesSequential) {
  // A bushy plan exercising every boundary kind.
  auto bushy = MakeHashJoin(
      MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate::Between(0, 0, 120)), 0),
                    MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0),
      MakeHashJoin(MakeSeqScan(r_, Predicate()),
                   MakeSeqScan(s_, Predicate::Between(0, 10, 60)), 0, 0),
      0, 0);

  auto seq = ExecutePlanSequential(*bushy, ctx_);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  auto frag = ExecutePlanFragmented(*bushy, ctx_);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_EQ(Normalize(*seq), Normalize(*frag));
  EXPECT_FALSE(seq->empty());
}

TEST_F(ExecTest, FragmentPartitionedExecutionUnions) {
  // Run the probe fragment of a hash join in 3 partitions; the union must
  // equal the unpartitioned result.
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  FragmentGraph g = FragmentGraph::Decompose(*plan);
  int build_id = g.fragment(g.root_fragment()).deps[0];

  auto build = ExecuteFragment(g, build_id, {}, ctx_);
  ASSERT_TRUE(build.ok());
  std::map<int, const TempResult*> inputs{{build_id, &build.value()}};

  std::multiset<std::string> combined;
  for (int i = 0; i < 3; ++i) {
    auto part = ExecuteFragment(g, g.root_fragment(), inputs, ctx_, 3, i);
    ASSERT_TRUE(part.ok());
    for (const auto& t : part->tuples) combined.insert(t.ToString());
  }

  auto whole = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(combined, Normalize(*whole));
}

TEST_F(ExecTest, BufferPoolPathAgreesWithDirectPath) {
  BufferPool pool(array_.get(), 64);
  ExecContext pooled;
  pooled.pool = &pool;

  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate::Between(0, 0, 99)),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  auto direct = ExecutePlanSequential(*plan, ctx_);
  auto buffered = ExecutePlanSequential(*plan, pooled);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(Normalize(*direct), Normalize(*buffered));
  EXPECT_GT(pool.stats().misses, 0u);
}

TEST_F(ExecTest, NestLoopInnerRescanPaysIo) {
  array_->ResetStats();
  auto plan = MakeNestLoopJoin(MakeSeqScan(r_, Predicate::Between(0, 0, 9)),
                               MakeSeqScan(s_, Predicate()), 0, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);  // 10 keys x 2 dup in s
  // Inner rescans: io grows with outer cardinality.
  EXPECT_GT(array_->total_stats().reads,
            static_cast<uint64_t>(r_->file().num_pages() +
                                  s_->file().num_pages()));
}

// --- cooperative sequential scans (exec/scan_cursor.h) -------------------

// A 64-page table t(a, b), four tuples per page, a = 0..255 in file order,
// on a throttled array whose reads take microseconds.
class ScanCursorTest : public ::testing::Test {
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
  }

  // Rows of a direct (unpooled) scan: the file's order.
  std::vector<Tuple> FileOrder() {
    SeqScanOp scan(t_, Predicate(), ExecContext());
    return Drain(&scan).value();
  }

  // The multiset of rows as sorted keys (a is unique per row).
  static std::vector<int32_t> SortedKeys(const std::vector<Tuple>& rows) {
    std::vector<int32_t> keys;
    for (const Tuple& t : rows) keys.push_back(std::get<int32_t>(t.value(0)));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  // Rows of a batch scan, in the order produced.
  static StatusOr<std::vector<Tuple>> DrainBatches(BatchSeqScanOp* scan) {
    XPRS_RETURN_IF_ERROR(scan->Open());
    std::vector<Tuple> rows;
    for (;;) {
      ColumnBatch batch;
      bool eof = false;
      XPRS_RETURN_IF_ERROR(scan->NextBatch(&batch, &eof));
      if (eof) break;
      for (uint32_t r = 0; r < batch.size(); ++r)
        rows.push_back(batch.MaterializeRow(r));
    }
    XPRS_RETURN_IF_ERROR(scan->Close());
    return rows;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
};

TEST_F(ScanCursorTest, LoneScanStartsAtPageZeroInFileOrder) {
  const std::vector<Tuple> expected = FileOrder();
  BufferPool pool(array_.get(), 32);
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.batch_rows = 7;  // batches straddle pages

  SeqScanOp tuple_scan(t_, Predicate(), ctx);
  auto tuples = Drain(&tuple_scan);
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  EXPECT_EQ(*tuples, expected);

  BatchSeqScanOp batch_scan(t_, ctx);
  auto batched = DrainBatches(&batch_scan);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(*batched, expected);

  EXPECT_GT(pool.stats().prefetches, 0u);  // read-ahead engaged
  EXPECT_EQ(t_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST_F(ScanCursorTest, JoiningScanSharesPagesAndCoversTheTable) {
  const std::vector<int32_t> expected = SortedKeys(FileOrder());
  // The pool holds a quarter of the table, so a solo scan misses on every
  // page even right after another one.
  uint64_t solo_reads = 0;
  for (int run = 0; run < 2; ++run) {
    BufferPool pool(array_.get(), 16);
    ExecContext ctx;
    ctx.pool = &pool;
    array_->ResetStats();
    SeqScanOp solo(t_, Predicate(), ctx);
    ASSERT_TRUE(Drain(&solo).ok());
    solo_reads += array_->total_stats().reads;
  }

  BufferPool pool(array_.get(), 16);
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.obs.metrics = &metrics;
  array_->ResetStats();
  SeqScanOp first(t_, Predicate(), ctx);
  SeqScanOp second(t_, Predicate(), ctx);
  std::vector<Tuple> first_rows, second_rows;
  Tuple row;
  bool eof = false;
  ASSERT_TRUE(first.Open().ok());
  while (first.pages_read() < 33) {  // mid-table: on page 32
    ASSERT_TRUE(first.Next(&row, &eof).ok());
    ASSERT_FALSE(eof);
    first_rows.push_back(row);
  }
  ASSERT_TRUE(second.Open().ok());
  EXPECT_EQ(metrics.counter("scan.sync_joins")->value(), 1u);
  // Lockstep: one row each while both run, then the joiner alone.
  bool first_done = false, second_done = false;
  while (!first_done || !second_done) {
    if (!first_done) {
      ASSERT_TRUE(first.Next(&row, &first_done).ok());
      if (!first_done) first_rows.push_back(row);
    }
    if (!second_done) {
      ASSERT_TRUE(second.Next(&row, &second_done).ok());
      if (!second_done) second_rows.push_back(row);
    }
  }
  EXPECT_EQ(std::get<int32_t>(second_rows.front().value(0)), 128);
  EXPECT_EQ(SortedKeys(first_rows), expected);
  EXPECT_EQ(SortedKeys(second_rows), expected);
  const uint64_t pair_reads = array_->total_stats().reads;
  EXPECT_LT(pair_reads, solo_reads);
  EXPECT_LE(pair_reads, 64u + 32u + pool.ReadAheadWindow());
  ASSERT_TRUE(first.Close().ok());
  ASSERT_TRUE(second.Close().ok());
  EXPECT_EQ(t_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST_F(ScanCursorTest, CancelledScanDeregisters) {
  const std::vector<Tuple> expected = FileOrder();
  BufferPool pool(array_.get(), 32);
  CancellationToken token;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;
  ctx.batch_rows = 4;  // one page per batch
  BatchSeqScanOp cancelled(t_, ctx);
  ASSERT_TRUE(cancelled.Open().ok());
  for (int i = 0; i < 10; ++i) {
    ColumnBatch batch;
    bool eof = false;
    ASSERT_TRUE(cancelled.NextBatch(&batch, &eof).ok());
  }
  EXPECT_EQ(t_->file().live_scans(), 1u);
  token.Cancel();
  ColumnBatch batch;
  bool eof = false;
  EXPECT_EQ(cancelled.NextBatch(&batch, &eof).code(), StatusCode::kCancelled);
  EXPECT_EQ(t_->file().live_scans(), 0u);

  // The next lone scan starts at page 0 again.
  ExecContext fresh;
  fresh.pool = &pool;
  SeqScanOp next(t_, Predicate(), fresh);
  auto rows = Drain(&next);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, expected);

  // A scan destroyed mid-table without Close leaves the registry too.
  {
    SeqScanOp abandoned(t_, Predicate(), fresh);
    ASSERT_TRUE(abandoned.Open().ok());
    Tuple row;
    ASSERT_TRUE(abandoned.Next(&row, &eof).ok());
    EXPECT_EQ(t_->file().live_scans(), 1u);
  }
  EXPECT_EQ(t_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// Three takers of one cursor (the slaves of a parallel fragment run) get
// every page of the file exactly once, and the cursor reads ahead for them
// and leaves the registry after the last page is passed.
TEST_F(ScanCursorTest, SharedCursorHandsEachPageToOneTaker) {
  BufferPool pool(array_.get(), 32);
  ExecContext ctx;
  ctx.pool = &pool;
  ScanCursor cursor;
  cursor.Open(&t_->file(), &ctx);
  EXPECT_EQ(t_->file().live_scans(), 1u);
  std::mutex mutex;
  std::vector<uint32_t> pages;
  std::atomic<int> errors{0};
  std::vector<std::thread> takers;
  for (int i = 0; i < 3; ++i) {
    takers.emplace_back([&] {
      Page direct;
      while (std::optional<uint32_t> page = cursor.Take()) {
        PageHandle handle;
        const Page* loaded = nullptr;
        if (!cursor.Load(*page, &handle, &direct, &loaded).ok()) ++errors;
        handle.Release();
        cursor.Pass(*page);
        std::lock_guard<std::mutex> lock(mutex);
        pages.push_back(*page);
      }
    });
  }
  for (std::thread& t : takers) t.join();
  EXPECT_EQ(errors.load(), 0);
  std::sort(pages.begin(), pages.end());
  ASSERT_EQ(pages.size(), 64u);
  for (uint32_t p = 0; p < 64; ++p) EXPECT_EQ(pages[p], p);
  EXPECT_EQ(cursor.taken(), 64u);
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_GT(pool.stats().prefetches, 0u);  // read-ahead engaged
  EXPECT_EQ(t_->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// The registry position of a shared cursor is the oldest page a taker
// still holds, so the file's other scans see that page as needed while
// the takers past it have moved on.
TEST_F(ScanCursorTest, PositionIsTheOldestPageStillHeld) {
  BufferPool pool(array_.get(), 32);
  ExecContext ctx;
  ctx.pool = &pool;
  ScanCursor cursor;
  cursor.Open(&t_->file(), &ctx);
  const HeapFile& file = t_->file();
  for (uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(cursor.Take(), p);
    cursor.Pass(p);
  }
  EXPECT_EQ(cursor.Take(), 5u);
  EXPECT_EQ(cursor.Take(), 6u);
  EXPECT_EQ(cursor.Take(), 7u);
  cursor.Pass(6);
  cursor.Pass(7);
  EXPECT_TRUE(file.PageNeededByOtherScan(0, 5));
  EXPECT_FALSE(file.PageNeededByOtherScan(0, 4));
  // A scan that starts now joins at the held page.
  ScanCursor joiner;
  joiner.Open(&file, &ctx);
  EXPECT_EQ(joiner.Take(), 5u);
  joiner.Close();
  cursor.Pass(5);
  EXPECT_FALSE(file.PageNeededByOtherScan(0, 5));
  EXPECT_FALSE(file.PageNeededByOtherScan(0, 7));
  EXPECT_TRUE(file.PageNeededByOtherScan(0, 8));
  cursor.Close();
  EXPECT_EQ(cursor.Take(), std::nullopt);
  EXPECT_EQ(file.live_scans(), 0u);
}

// Without a pool, a shared cursor hands out the pages in file order and
// registers nothing; a granule cursor hands out 0..n-1.
TEST_F(ScanCursorTest, UnpooledAndGranuleCursorsGoInOrder) {
  ExecContext ctx;
  ScanCursor cursor;
  cursor.Open(&t_->file(), &ctx);
  EXPECT_EQ(t_->file().live_scans(), 0u);
  for (uint32_t p = 0; p < 64; ++p) EXPECT_EQ(cursor.Take(), p);
  EXPECT_EQ(cursor.Take(), std::nullopt);

  ScanCursor granules;
  granules.OpenGranules(3);
  for (uint32_t g = 0; g < 3; ++g) EXPECT_EQ(granules.Take(), g);
  EXPECT_EQ(granules.Take(), std::nullopt);
  granules.OpenGranules(0);
  EXPECT_TRUE(granules.exhausted());
}

// --- scan-aware recycling --------------------------------------------------

// A leader scans a 64-page table through a 16-frame pool; a follower joins
// it on page 32 and lags eight pages behind. The pages the leader passes
// while the follower still has them ahead must stay resident until the
// follower passes them too. A kInstant array: recycling is a replacement
// decision and needs no latency, and every read here is synchronous.
TEST(ScanRecyclingTest, PagesALaggingFollowerNeedsStayResident) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* t = catalog.CreateTable("t", Schema::PaperSchema()).value();
  std::vector<int32_t> expected;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(t->file()
                    .Append(Tuple({Value(int32_t{i}),
                                   Value(std::string(1900, 'x'))}))
                    .ok());
    expected.push_back(i);
  }
  ASSERT_TRUE(t->file().Flush().ok());
  ASSERT_EQ(t->file().num_pages(), 64u);
  BufferPool pool(&array, 16);
  ExecContext ctx;
  ctx.pool = &pool;

  SeqScanOp leader(t, Predicate(), ctx);
  SeqScanOp follower(t, Predicate(), ctx);
  std::vector<int32_t> leader_keys, follower_keys;
  // Pulls rows from `scan` until it has loaded `pages` pages.
  auto run_to = [](SeqScanOp* scan, uint64_t pages,
                   std::vector<int32_t>* keys) {
    Tuple row;
    bool eof = false;
    while (scan->pages_read() < pages) {
      ASSERT_TRUE(scan->Next(&row, &eof).ok());
      ASSERT_FALSE(eof);
      keys->push_back(std::get<int32_t>(row.value(0)));
    }
  };
  ASSERT_TRUE(leader.Open().ok());
  run_to(&leader, 33, &leader_keys);  // on page 32
  ASSERT_TRUE(follower.Open().ok());  // joins on page 32
  run_to(&leader, 41, &leader_keys);  // on page 40: passed 32..39
  EXPECT_EQ(pool.DoneListSize(), 0u);  // the follower needs all of them
  EXPECT_GT(pool.stats().recycled, 0u);  // pages 0..31 streamed through

  array.ResetStats();
  run_to(&follower, 9, &follower_keys);  // passes 32..39, on page 40
  EXPECT_EQ(array.total_stats().reads, 0u);
  EXPECT_EQ(pool.DoneListSize(), 8u);  // now nobody needs 32..39

  // Both finish: each returns the whole table once.
  for (auto* keys : {&leader_keys, &follower_keys}) {
    SeqScanOp* scan = keys == &leader_keys ? &leader : &follower;
    Tuple row;
    bool eof = false;
    for (;;) {
      ASSERT_TRUE(scan->Next(&row, &eof).ok());
      if (eof) break;
      keys->push_back(std::get<int32_t>(row.value(0)));
    }
    ASSERT_TRUE(scan->Close().ok());
    std::sort(keys->begin(), keys->end());
    EXPECT_EQ(*keys, expected);
  }
  EXPECT_EQ(t->file().live_scans(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.TotalPins(), 0u);
}

}  // namespace
}  // namespace xprs
