// Tests for the storage substrate: pages, tuples, the striped disk array,
// heap files and the buffer pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace xprs {
namespace {

TEST(PageTest, EmptyPageHasNoTuples) {
  Page p;
  EXPECT_EQ(p.num_tuples(), 0);
  EXPECT_GT(p.FreeSpace(), 8000u);
}

TEST(PageTest, AddAndGetRoundTrip) {
  Page p;
  const uint8_t data[] = {1, 2, 3, 4, 5};
  auto slot = p.AddTuple(data, sizeof(data));
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot.value(), 0);
  const uint8_t* out;
  uint16_t size;
  ASSERT_TRUE(p.GetTuple(0, &out, &size).ok());
  ASSERT_EQ(size, sizeof(data));
  EXPECT_EQ(0, memcmp(out, data, size));
}

TEST(PageTest, FillsUntilExhausted) {
  Page p;
  uint8_t data[100] = {};
  int added = 0;
  for (;;) {
    auto slot = p.AddTuple(data, sizeof(data));
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ++added;
  }
  // 8192 bytes / (100 payload + 4 slot) ~ 78 tuples.
  EXPECT_GT(added, 70);
  EXPECT_LT(added, 82);
  EXPECT_EQ(p.num_tuples(), added);
}

TEST(PageTest, SingleGiantTupleFits) {
  Page p;
  std::vector<uint8_t> data(MaxTuplePayload(), 0xAB);
  ASSERT_TRUE(p.AddTuple(data.data(), static_cast<uint16_t>(data.size())).ok());
  EXPECT_EQ(p.FreeSpace(), 0u);
  const uint8_t* out;
  uint16_t size;
  ASSERT_TRUE(p.GetTuple(0, &out, &size).ok());
  EXPECT_EQ(size, data.size());
}

TEST(PageTest, InvalidSlotRejected) {
  Page p;
  const uint8_t* out;
  uint16_t size;
  EXPECT_EQ(p.GetTuple(0, &out, &size).code(), StatusCode::kOutOfRange);
}

TEST(PageTest, InitResets) {
  Page p;
  const uint8_t data[] = {9};
  ASSERT_TRUE(p.AddTuple(data, 1).ok());
  p.Init();
  EXPECT_EQ(p.num_tuples(), 0);
}

TEST(TupleTest, SerializeDeserializeRoundTrip) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{42}), Value(std::string("hello"))});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(t.Serialize(schema, &bytes).ok());
  auto back = Tuple::Deserialize(schema, bytes.data(),
                                 static_cast<uint16_t>(bytes.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), t);
}

TEST(TupleTest, NullsSurviveRoundTrip) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{7}), Value(std::monostate{})});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(t.Serialize(schema, &bytes).ok());
  auto back = Tuple::Deserialize(schema, bytes.data(),
                                 static_cast<uint16_t>(bytes.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(IsNull(back.value().value(1)));
}

TEST(TupleTest, TypeMismatchRejected) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(std::string("not an int")), Value(std::string("x"))});
  std::vector<uint8_t> bytes;
  EXPECT_EQ(t.Serialize(schema, &bytes).code(), StatusCode::kInvalidArgument);
}

TEST(TupleTest, ArityMismatchRejected) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{1})});
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(t.Serialize(schema, &bytes).ok());
}

TEST(TupleTest, TruncatedDataRejected) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{42}), Value(std::string("hello"))});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(t.Serialize(schema, &bytes).ok());
  auto bad = Tuple::Deserialize(schema, bytes.data(),
                                static_cast<uint16_t>(bytes.size() - 3));
  EXPECT_FALSE(bad.ok());
}

TEST(TupleTest, CompareValuesOrdersNullFirst) {
  EXPECT_LT(CompareValues(Value(std::monostate{}), Value(int32_t{1})), 0);
  EXPECT_GT(CompareValues(Value(int32_t{1}), Value(std::monostate{})), 0);
  EXPECT_EQ(CompareValues(Value(int32_t{5}), Value(int32_t{5})), 0);
  EXPECT_LT(CompareValues(Value(std::string("a")), Value(std::string("b"))),
            0);
}

TEST(TupleTest, ConcatJoinsValuesAndSchemas) {
  Tuple l({Value(int32_t{1})});
  Tuple r({Value(std::string("x")), Value(int32_t{2})});
  Tuple joined = Tuple::Concat(l, r);
  EXPECT_EQ(joined.size(), 3u);
  Schema s = Schema::Concat(Schema({{"a", TypeId::kInt4}}),
                            Schema({{"b", TypeId::kText},
                                    {"c", TypeId::kInt4}}));
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.column(2).name, "c");
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = Schema::PaperSchema();
  ASSERT_TRUE(s.ColumnIndex("b").ok());
  EXPECT_EQ(s.ColumnIndex("b").value(), 1u);
  EXPECT_EQ(s.ColumnIndex("zz").status().code(), StatusCode::kNotFound);
}

TEST(DiskArrayTest, RoundRobinStriping) {
  DiskArray array(4, DiskMode::kInstant);
  for (int i = 0; i < 8; ++i) {
    BlockId b = array.AllocateBlock();
    EXPECT_EQ(b, static_cast<BlockId>(i));
    EXPECT_EQ(array.DiskOf(b), i % 4);
  }
  EXPECT_EQ(array.num_blocks(), 8u);
}

TEST(DiskArrayTest, ReadWriteRoundTrip) {
  DiskArray array(2, DiskMode::kInstant);
  BlockId b = array.AllocateBlock();
  Page p;
  const uint8_t data[] = {0xDE, 0xAD};
  ASSERT_TRUE(p.AddTuple(data, 2).ok());
  ASSERT_TRUE(array.WriteBlock(b, p).ok());
  Page q;
  ASSERT_TRUE(array.ReadBlock(b, &q).ok());
  const uint8_t* out;
  uint16_t size;
  ASSERT_TRUE(q.GetTuple(0, &out, &size).ok());
  EXPECT_EQ(size, 2);
  EXPECT_EQ(out[0], 0xDE);
}

TEST(DiskArrayTest, OutOfRangeRejected) {
  DiskArray array(2, DiskMode::kInstant);
  Page p;
  EXPECT_EQ(array.ReadBlock(5, &p).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(array.WriteBlock(5, p).code(), StatusCode::kOutOfRange);
}

TEST(DiskArrayTest, SequentialScanCountsSequential) {
  DiskArray array(4, DiskMode::kInstant);
  for (int i = 0; i < 64; ++i) array.AllocateBlock();
  Page p;
  for (BlockId b = 0; b < 64; ++b) ASSERT_TRUE(array.ReadBlock(b, &p).ok());
  DiskStats total = array.total_stats();
  EXPECT_EQ(total.reads, 64u);
  // A striped scan advances each disk's local index by one per round: all
  // sequential.
  EXPECT_EQ(total.seq_reads, 64u);
  EXPECT_EQ(total.rand_reads, 0u);
}

TEST(DiskArrayTest, RandomAccessCountsRandom) {
  DiskArray array(4, DiskMode::kInstant);
  for (int i = 0; i < 256; ++i) array.AllocateBlock();
  Rng rng(3);
  Page p;
  for (int i = 0; i < 100; ++i) {
    BlockId b = static_cast<BlockId>(rng.NextUint64(256));
    ASSERT_TRUE(array.ReadBlock(b, &p).ok());
  }
  DiskStats total = array.total_stats();
  EXPECT_EQ(total.reads, 100u);
  EXPECT_GT(total.rand_reads, 50u);  // overwhelmingly random
}

TEST(DiskArrayTest, BusyTimeTracksServiceModel) {
  DiskTimings t;
  DiskArray array(1, DiskMode::kInstant, t);
  for (int i = 0; i < 10; ++i) array.AllocateBlock();
  Page p;
  for (BlockId b = 0; b < 10; ++b) ASSERT_TRUE(array.ReadBlock(b, &p).ok());
  // 10 sequential reads at 1/97 s each.
  EXPECT_NEAR(array.total_stats().busy_seconds, 10.0 / 97.0, 1e-9);
}

TEST(DiskArrayTest, ResetStatsClears) {
  DiskArray array(2, DiskMode::kInstant);
  array.AllocateBlock();
  Page p;
  ASSERT_TRUE(array.ReadBlock(0, &p).ok());
  array.ResetStats();
  EXPECT_EQ(array.total_stats().reads, 0u);
}

TEST(DiskArrayTest, ReadsRaceAllocation) {
  // Readers copy pages outside the array lock while a writer keeps growing
  // the block store, which reallocates the deque's internal map.
  DiskArray array(4, DiskMode::kInstant);
  constexpr int kBlocks = 1500;
  std::atomic<uint32_t> written{0};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < kBlocks; ++i) {
      BlockId b = array.AllocateBlock();
      Page p;
      uint8_t bytes[4];
      std::memcpy(bytes, &b, sizeof(b));
      if (!p.AddTuple(bytes, sizeof(bytes)).ok() ||
          !array.WriteBlock(b, p).ok())
        ++errors;
      written.store(b + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(7 + t);
      Page page;
      for (int i = 0;
           i < 2000 || written.load(std::memory_order_acquire) < kBlocks;
           ++i) {
        const uint32_t n = written.load(std::memory_order_acquire);
        if (n == 0) continue;
        const BlockId b = static_cast<BlockId>(rng.NextUint64(n));
        const uint8_t* data;
        uint16_t size;
        BlockId seen = 0;
        if (!array.ReadBlock(b, &page).ok() ||
            !page.GetTuple(0, &data, &size).ok()) {
          ++errors;
          continue;
        }
        std::memcpy(&seen, data, sizeof(seen));
        if (seen != b) ++errors;
        if (array.ReadBlock(kBlocks, &page).code() != StatusCode::kOutOfRange)
          ++errors;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(array.num_blocks(), static_cast<BlockId>(kBlocks));
}

HeapFile MakeLoadedFile(DiskArray* array, int num_tuples, int text_width) {
  HeapFile file("r", Schema::PaperSchema(), array);
  for (int i = 0; i < num_tuples; ++i) {
    Tuple t({Value(int32_t{i}), Value(std::string(text_width, 'x'))});
    EXPECT_TRUE(file.Append(t).ok());
  }
  EXPECT_TRUE(file.Flush().ok());
  return file;
}

TEST(HeapFileTest, AppendAndScanBack) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile file = MakeLoadedFile(&array, 500, 20);
  EXPECT_EQ(file.num_tuples(), 500u);
  EXPECT_GT(file.num_pages(), 0u);

  int count = 0;
  Page page;
  for (uint32_t p = 0; p < file.num_pages(); ++p) {
    ASSERT_TRUE(file.ReadPage(p, &page).ok());
    for (uint16_t s = 0; s < page.num_tuples(); ++s) {
      const uint8_t* data;
      uint16_t size;
      ASSERT_TRUE(page.GetTuple(s, &data, &size).ok());
      auto t = Tuple::Deserialize(file.schema(), data, size);
      ASSERT_TRUE(t.ok());
      EXPECT_EQ(std::get<int32_t>(t.value().value(0)), count);
      ++count;
    }
  }
  EXPECT_EQ(count, 500);
}

TEST(HeapFileTest, TupleSizeControlsPagesPerTuple) {
  DiskArray array(4, DiskMode::kInstant);
  // r_max style: one fat tuple per page.
  HeapFile rmax = MakeLoadedFile(&array, 50, 7000);
  EXPECT_EQ(rmax.num_pages(), 50u);
  // r_min style: b is tiny -> hundreds of tuples per page.
  HeapFile rmin = MakeLoadedFile(&array, 1000, 0);
  EXPECT_LT(rmin.num_pages(), 5u);
  EXPECT_GT(rmin.TuplesPerPage(), 200.0);
}

TEST(HeapFileTest, ReadTupleByTid) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile file = MakeLoadedFile(&array, 100, 100);
  auto t = file.ReadTuple(TupleId{0, 3});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(std::get<int32_t>(t->value(0)), 3);
}

TEST(HeapFileTest, OversizedTupleRejected) {
  DiskArray array(1, DiskMode::kInstant);
  HeapFile file("r", Schema::PaperSchema(), &array);
  Tuple t({Value(int32_t{1}), Value(std::string(9000, 'x'))});
  EXPECT_EQ(file.Append(t).code(), StatusCode::kInvalidArgument);
}

TEST(HeapFileTest, UnflushedTailIsNotReadable) {
  DiskArray array(1, DiskMode::kInstant);
  HeapFile file("r", Schema::PaperSchema(), &array);
  ASSERT_TRUE(file.Append(Tuple({Value(int32_t{1}), Value(std::string())}))
                  .ok());
  Page p;
  EXPECT_EQ(file.ReadPage(0, &p).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(file.Flush().ok());
  EXPECT_TRUE(file.ReadPage(0, &p).ok());
}

TEST(BufferPoolTest, HitAfterMiss) {
  DiskArray array(2, DiskMode::kInstant);
  BlockId b = array.AllocateBlock();
  BufferPool pool(&array, 4);
  {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok());
  }
  {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsUnpinnedFrames) {
  DiskArray array(1, DiskMode::kInstant);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 10; ++i) blocks.push_back(array.AllocateBlock());
  BufferPool pool(&array, 2);
  for (BlockId b : blocks) {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().misses, 10u);  // pool smaller than working set
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  DiskArray array(1, DiskMode::kInstant);
  BlockId a = array.AllocateBlock();
  BlockId b = array.AllocateBlock();
  BlockId c = array.AllocateBlock();
  BufferPool pool(&array, 2);
  auto h1 = pool.Fetch(a);
  auto h2 = pool.Fetch(b);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  auto h3 = pool.Fetch(c);
  EXPECT_EQ(h3.status().code(), StatusCode::kResourceExhausted);
  h1->Release();
  auto h4 = pool.Fetch(c);
  EXPECT_TRUE(h4.ok());
}

TEST(BufferPoolTest, PageContentCorrectAcrossEviction) {
  DiskArray array(1, DiskMode::kInstant);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 6; ++i) {
    BlockId b = array.AllocateBlock();
    Page p;
    uint8_t byte = static_cast<uint8_t>(i);
    EXPECT_TRUE(p.AddTuple(&byte, 1).ok());
    EXPECT_TRUE(array.WriteBlock(b, p).ok());
    blocks.push_back(b);
  }
  BufferPool pool(&array, 2);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 6; ++i) {
      auto h = pool.Fetch(blocks[i]);
      ASSERT_TRUE(h.ok());
      const uint8_t* data;
      uint16_t size;
      ASSERT_TRUE(h->page().GetTuple(0, &data, &size).ok());
      EXPECT_EQ(data[0], static_cast<uint8_t>(i));
    }
  }
}

TEST(BufferPoolTest, ConcurrentFetchesAreConsistent) {
  DiskArray array(4, DiskMode::kInstant);
  constexpr int kBlocks = 64;
  for (int i = 0; i < kBlocks; ++i) {
    BlockId b = array.AllocateBlock();
    Page p;
    uint8_t byte = static_cast<uint8_t>(i);
    ASSERT_TRUE(p.AddTuple(&byte, 1).ok());
    ASSERT_TRUE(array.WriteBlock(b, p).ok());
  }
  BufferPool pool(&array, 16);
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 2000; ++i) {
        BlockId b = static_cast<BlockId>(rng.NextUint64(kBlocks));
        auto h = pool.Fetch(b);
        if (!h.ok()) {
          ++errors;
          continue;
        }
        const uint8_t* data;
        uint16_t size;
        if (!h->page().GetTuple(0, &data, &size).ok() ||
            data[0] != static_cast<uint8_t>(b)) {
          ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 8000u);
}

// --- read-ahead -----------------------------------------------------------

// A throttled array whose reads take microseconds.
DiskTimings FastTimings() {
  DiskTimings timings;
  timings.time_scale = 0.001;
  return timings;
}

// Allocates `n` blocks, each holding one 1-byte tuple equal to its index.
std::vector<BlockId> FillBlocks(DiskArray* array, int n) {
  std::vector<BlockId> blocks;
  for (int i = 0; i < n; ++i) {
    BlockId b = array->AllocateBlock();
    Page p;
    uint8_t byte = static_cast<uint8_t>(i);
    EXPECT_TRUE(p.AddTuple(&byte, 1).ok());
    EXPECT_TRUE(array->WriteBlock(b, p).ok());
    blocks.push_back(b);
  }
  return blocks;
}

uint8_t FirstByte(const Page& page) {
  const uint8_t* data = nullptr;
  uint16_t size = 0;
  EXPECT_TRUE(page.GetTuple(0, &data, &size).ok());
  return data == nullptr ? 0xff : data[0];
}

TEST(BufferPoolTest, ReadAheadWindowIsTwoPerDiskCappedByPool) {
  DiskArray throttled(4, DiskMode::kThrottled, FastTimings());
  EXPECT_EQ(BufferPool(&throttled, 1024).ReadAheadWindow(), 8u);
  EXPECT_EQ(BufferPool(&throttled, 32).ReadAheadWindow(), 4u);
  EXPECT_EQ(BufferPool(&throttled, 7).ReadAheadWindow(), 0u);
  DiskArray instant(4, DiskMode::kInstant);
  EXPECT_EQ(BufferPool(&instant, 1024).ReadAheadWindow(), 0u);
}

TEST(BufferPoolTest, PrefetchedBlockIsAHitWithNoPinsLeft) {
  DiskArray array(4, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, 8);
  BufferPool pool(&array, 16);
  for (BlockId b : blocks) pool.Prefetch(b);
  pool.Prefetch(blocks[0]);  // already resident or loading: skipped
  EXPECT_EQ(pool.PinnedFrames(), 0u);  // read-ahead holds no pins
  for (int i = 0; i < 8; ++i) {
    auto h = pool.Fetch(blocks[i]);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(FirstByte(h->page()), static_cast<uint8_t>(i));
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetches, 8u);
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.prefetch_unused, 0u);
  EXPECT_EQ(array.total_stats().reads, 8u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.TotalPins(), 0u);
}

TEST(BufferPoolTest, EvictedPrefetchCountsAsUnused) {
  DiskArray array(1, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, 3);
  BufferPool pool(&array, 1);
  pool.Prefetch(blocks[0]);
  // The only frame is busy until the read-ahead lands. The fetch waits for
  // it rather than failing, then evicts the page nobody fetched.
  auto h = pool.Fetch(blocks[1]);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(FirstByte(h->page()), 1);
  EXPECT_EQ(pool.stats().prefetches, 1u);
  EXPECT_EQ(pool.stats().prefetch_unused, 1u);
}

TEST(BufferPoolTest, FailedPrefetchRollsBackAndFetchReadsAgain) {
  DiskArray array(2, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, 2);
  ScriptedFaultInjector injector;
  array.SetFaultInjector(&injector);

  // Every read fails: without read-ahead the fetch reports IoError...
  ScriptedFaultInjector::Script all_fail;
  all_fail.read_fault_rate = 1.0;
  injector.Arm(all_fail);
  StatusCode without;
  {
    BufferPool plain(&array, 4);
    without = plain.Fetch(blocks[0]).status().code();
  }
  EXPECT_EQ(without, StatusCode::kIoError);
  // ...and with it: the failed prefetch is dropped silently, the fetch
  // reads the block itself and reports the same error.
  injector.Arm(all_fail);
  BufferPool pool(&array, 4);
  pool.Prefetch(blocks[0]);
  EXPECT_EQ(pool.Fetch(blocks[0]).status().code(), without);
  EXPECT_EQ(injector.reads_seen(), 2u);  // prefetch, then the fetch
  EXPECT_EQ(pool.PinnedFrames(), 0u);

  // A transient fault consumed by the prefetch: the next fetch reads the
  // block again and succeeds.
  ScriptedFaultInjector::Script first_fails;
  first_fails.fail_nth_read = 1;
  injector.Arm(first_fails);
  pool.Prefetch(blocks[1]);
  {
    auto h = pool.Fetch(blocks[1]);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_EQ(FirstByte(h->page()), 1);
  }
  EXPECT_EQ(injector.reads_seen(), 2u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.TotalPins(), 0u);
  array.SetFaultInjector(nullptr);
}

TEST(BufferPoolTest, DestroyedWithPrefetchesInFlightJoinsCleanly) {
  DiskTimings slow;
  slow.time_scale = 0.2;  // 2 ms reads: most of the 16 per disk stay queued
  DiskArray array(4, DiskMode::kThrottled, slow);
  std::vector<BlockId> blocks = FillBlocks(&array, 64);
  {
    BufferPool pool(&array, 64);
    for (BlockId b : blocks) pool.Prefetch(b);
    EXPECT_EQ(pool.stats().prefetches, 64u);
  }
  EXPECT_LT(array.total_stats().reads, 64u);  // the queued rest was dropped
  BufferPool again(&array, 4);
  auto h = again.Fetch(blocks[5]);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(FirstByte(h->page()), 5);
}

TEST(BufferPoolTest, SoftPinLimitSuppressesPrefetch) {
  DiskArray array(2, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, 4);
  BufferPool pool(&array, 8);
  pool.SetSoftPinLimit(1);
  {
    auto pinned = pool.Fetch(blocks[0]);
    ASSERT_TRUE(pinned.ok());
    pool.Prefetch(blocks[1]);
    EXPECT_EQ(pool.stats().prefetches, 0u);
  }
  pool.Prefetch(blocks[1]);
  EXPECT_EQ(pool.stats().prefetches, 1u);
}

TEST(BufferPoolTest, PrefetchIsANoOpOnInstantArray) {
  DiskArray array(4, DiskMode::kInstant);
  std::vector<BlockId> blocks = FillBlocks(&array, 4);
  BufferPool pool(&array, 8);
  pool.Prefetch(blocks[2]);
  EXPECT_EQ(pool.stats().prefetches, 0u);
  EXPECT_EQ(array.total_stats().reads, 0u);
  ASSERT_TRUE(pool.Fetch(blocks[2]).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
}

// Holds every disk read until opened.
class GateInjector : public FaultInjector {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  Status BeforeRead(BlockId) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
    return Status::OK();
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }
  Status BeforeFetch(BlockId) override { return Status::OK(); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(BufferPoolTest, WaitersOnDistinctLoadsEachGetTheirBlock) {
  constexpr int kThreads = 6;
  DiskArray array(2, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, kThreads);
  GateInjector gate;
  array.SetFaultInjector(&gate);
  BufferPool pool(&array, 16);
  // Every block is loading (the IO threads block in the gate or queue
  // behind it), so each fetcher waits for a different load.
  for (BlockId b : blocks) pool.Prefetch(b);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = pool.Fetch(blocks[t]);
      if (!h.ok() || FirstByte(h->page()) != static_cast<uint8_t>(t))
        ++errors;
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.stats().load_waits < static_cast<uint64_t>(kThreads) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(pool.stats().load_waits, static_cast<uint64_t>(kThreads));
  gate.Open();
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  array.SetFaultInjector(nullptr);
}

TEST(BufferPoolTest, AttachedMetricsCountReadAhead) {
  DiskArray array(2, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, 4);
  MetricsRegistry metrics;
  BufferPool pool(&array, 8);
  pool.AttachMetrics(&metrics);
  for (BlockId b : blocks) pool.Prefetch(b);
  for (BlockId b : blocks) ASSERT_TRUE(pool.Fetch(b).ok());
  EXPECT_EQ(metrics.counter("bufferpool.prefetch.issued")->value(), 4u);
  EXPECT_EQ(metrics.counter("bufferpool.hits")->value(), 4u);
  EXPECT_EQ(metrics.counter("bufferpool.prefetch.unused")->value(), 0u);
  EXPECT_EQ(metrics.counter("bufferpool.load_waits")->value(),
            pool.stats().load_waits);
}

// --- scan-aware recycling ----------------------------------------------

// Scans `file` through `pool` page by page as a lone serial scan does:
// registered, and, when the file is larger than the pool, marking each page
// done once it has passed it and no other live scan still needs it.
void ScanThroughPool(const HeapFile& file, BufferPool* pool) {
  uint32_t start = 0;
  bool joined = false;
  const uint64_t id = file.RegisterScan(&start, &joined);
  const bool recycle = file.num_pages() > pool->num_frames();
  for (uint32_t p = 0; p < file.num_pages(); ++p) {
    file.UpdateScan(id, p);
    const BlockId block = file.BlockOf(p).value();
    ASSERT_TRUE(pool->Fetch(block).ok());
    if (recycle && !file.PageNeededByOtherScan(id, p)) pool->MarkDone(block);
  }
  file.UnregisterScan(id);
}

TEST(BufferPoolTest, SmallFileStaysCachedAcrossAScanOfALargerFile) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile small = MakeLoadedFile(&array, 12, 1900);
  HeapFile large = MakeLoadedFile(&array, 100, 1900);
  BufferPool pool(&array, small.num_pages() + 2);
  ASSERT_GT(large.num_pages(), pool.num_frames());
  MetricsRegistry metrics;
  pool.AttachMetrics(&metrics);

  ScanThroughPool(small, &pool);
  ScanThroughPool(large, &pool);
  array.ResetStats();
  ScanThroughPool(small, &pool);
  // The large file streamed through one frame: its first page took a free
  // one, every later page recycled the page before it.
  EXPECT_EQ(array.total_stats().reads, 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.recycled, large.num_pages() - 1u);
  EXPECT_EQ(stats.misses, small.num_pages() + large.num_pages());
  EXPECT_EQ(stats.hits, small.num_pages());
  EXPECT_EQ(metrics.counter("bufferpool.recycled")->value(), stats.recycled);
  EXPECT_NE(pool.ToString().find(
                "recycled=" + std::to_string(stats.recycled) + "}"),
            std::string::npos);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST(BufferPoolTest, HitOnADoneFrameRevivesIt) {
  DiskArray array(1, DiskMode::kInstant);
  std::vector<BlockId> blocks = FillBlocks(&array, 3);
  BufferPool pool(&array, 2);
  ASSERT_TRUE(pool.Fetch(blocks[0]).ok());
  ASSERT_TRUE(pool.Fetch(blocks[1]).ok());
  pool.MarkDone(blocks[0]);
  ASSERT_TRUE(pool.Fetch(blocks[0]).ok());  // a hit: no longer done
  pool.MarkDone(blocks[1]);
  ASSERT_TRUE(pool.Fetch(blocks[2]).ok());  // recycles blocks[1]'s frame
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.DoneListSize(), 0u);

  array.ResetStats();
  {
    auto h = pool.Fetch(blocks[0]);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(FirstByte(h->page()), 0);
  }
  EXPECT_EQ(array.total_stats().reads, 0u);  // still resident
}

// Holds disk reads of one block until opened.
class BlockGate : public FaultInjector {
 public:
  explicit BlockGate(BlockId block) : block_(block) {}
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  Status BeforeRead(BlockId block) override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_ || block != block_; });
    return Status::OK();
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }
  Status BeforeFetch(BlockId) override { return Status::OK(); }

 private:
  const BlockId block_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(BufferPoolTest, PinnedOrLoadingDoneFramesAreNeverHandedOut) {
  DiskArray array(2, DiskMode::kThrottled, FastTimings());
  std::vector<BlockId> blocks = FillBlocks(&array, 3);
  BlockGate gate(blocks[1]);
  array.SetFaultInjector(&gate);
  {
    BufferPool pool(&array, 3);
    pool.Prefetch(blocks[1]);  // loading until the gate opens
    auto pinned = pool.Fetch(blocks[0]);
    ASSERT_TRUE(pinned.ok());
    pool.MarkDone(blocks[0]);
    pool.MarkDone(blocks[1]);
    EXPECT_EQ(pool.DoneListSize(), 2u);

    // Both done frames are skipped and left to the clock, which finds the
    // free third frame.
    auto other = pool.Fetch(blocks[2]);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    EXPECT_EQ(FirstByte(other->page()), 2);
    EXPECT_EQ(FirstByte(pinned->page()), 0);
    EXPECT_EQ(pool.stats().recycled, 0u);
    EXPECT_EQ(pool.DoneListSize(), 0u);
    EXPECT_EQ(pool.TotalPins(), 2u);  // MarkDone took and dropped none

    gate.Open();
    auto loaded = pool.Fetch(blocks[1]);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(FirstByte(loaded->page()), 1);
    EXPECT_EQ(pool.stats().hits, 1u);
  }
  array.SetFaultInjector(nullptr);
}

TEST(BufferPoolTest, DoneListHoldsEachFrameAtMostOnce) {
  DiskArray array(1, DiskMode::kInstant);
  std::vector<BlockId> blocks = FillBlocks(&array, 6);
  BufferPool pool(&array, 4);
  pool.MarkDone(blocks[0]);  // not resident: a no-op
  EXPECT_EQ(pool.DoneListSize(), 0u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pool.Fetch(blocks[i]).ok());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      pool.MarkDone(blocks[i]);
      ASSERT_TRUE(pool.Fetch(blocks[i]).ok());  // revived, entry still listed
      pool.MarkDone(blocks[i]);
      EXPECT_LE(pool.DoneListSize(), pool.num_frames());
    }
  }
  EXPECT_EQ(pool.DoneListSize(), 4u);
  // Two claims take the two oldest done frames.
  ASSERT_TRUE(pool.Fetch(blocks[4]).ok());
  ASSERT_TRUE(pool.Fetch(blocks[5]).ok());
  EXPECT_EQ(pool.stats().recycled, 2u);
  EXPECT_EQ(pool.DoneListSize(), 2u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// --- synchronized-scan registry -----------------------------------------

TEST(HeapFileTest, ScanRegistryJoinsTheMostRecentLiveScan) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile file = MakeLoadedFile(&array, 100, 500);
  uint32_t start = 99;
  bool joined = true;
  const uint64_t first = file.RegisterScan(&start, &joined);
  EXPECT_FALSE(joined);
  EXPECT_EQ(start, 0u);
  file.UpdateScan(first, 4);
  const uint64_t second = file.RegisterScan(&start, &joined);
  EXPECT_TRUE(joined);
  EXPECT_EQ(start, 4u);
  file.UpdateScan(second, 6);
  const uint64_t third = file.RegisterScan(&start, &joined);
  EXPECT_EQ(start, 6u);  // the most recently started scan's page
  EXPECT_EQ(file.live_scans(), 3u);
  file.UnregisterScan(second);
  file.UnregisterScan(third);
  file.RegisterScan(&start, &joined);
  EXPECT_EQ(start, 4u);
  file.UnregisterScan(first);
  EXPECT_EQ(file.live_scans(), 1u);
}

TEST(HeapFileTest, ScanRegistryKnowsWhichPagesAScanStillNeeds) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile file = MakeLoadedFile(&array, 40, 1900);
  ASSERT_EQ(file.num_pages(), 10u);
  EXPECT_FALSE(file.PageNeededByOtherScan(0, 3));  // no live scan
  uint32_t start = 0;
  bool joined = false;
  const uint64_t lone = file.RegisterScan(&start, &joined);
  // On its start page a scan has the whole file ahead of it.
  for (uint32_t p = 0; p < 10; ++p)
    EXPECT_TRUE(file.PageNeededByOtherScan(0, p));
  EXPECT_FALSE(file.PageNeededByOtherScan(lone, 3));  // its own id is skipped
  file.UpdateScan(lone, 6);
  EXPECT_FALSE(file.PageNeededByOtherScan(0, 5));  // passed
  EXPECT_TRUE(file.PageNeededByOtherScan(0, 6));   // the page it is on
  EXPECT_TRUE(file.PageNeededByOtherScan(0, 9));

  // A joiner starts at page 6 and wraps: it needs 8, 9, 0..5.
  const uint64_t joiner = file.RegisterScan(&start, &joined);
  ASSERT_EQ(start, 6u);
  file.UpdateScan(joiner, 8);
  EXPECT_TRUE(file.PageNeededByOtherScan(lone, 2));
  EXPECT_TRUE(file.PageNeededByOtherScan(lone, 8));
  EXPECT_FALSE(file.PageNeededByOtherScan(lone, 7));
  EXPECT_TRUE(file.PageNeededByOtherScan(joiner, 7));  // the lone scan's
  file.UnregisterScan(lone);
  EXPECT_FALSE(file.PageNeededByOtherScan(0, 7));
  file.UnregisterScan(joiner);
}

TEST(CatalogTest, CreateAndLookup) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  auto t = catalog.CreateTable("r1", Schema::PaperSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.GetTable("r1").ok());
  EXPECT_EQ(catalog.GetTable("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.CreateTable("r1", Schema::PaperSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, StatsComputedFromData) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* table = catalog.CreateTable("r1", Schema::PaperSchema()).value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table->file()
                    .Append(Tuple({Value(int32_t{i * 3}),
                                   Value(std::string(10, 'b'))}))
                    .ok());
  }
  ASSERT_TRUE(table->file().Flush().ok());
  ASSERT_TRUE(table->ComputeStats().ok());
  EXPECT_EQ(table->stats().num_tuples, 100u);
  EXPECT_TRUE(table->stats().has_key_bounds);
  EXPECT_EQ(table->stats().min_key, 0);
  EXPECT_EQ(table->stats().max_key, 297);
  EXPECT_GT(table->stats().tuples_per_page, 1.0);
}

TEST(CatalogTest, BuildIndexOnKeyColumn) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* table = catalog.CreateTable("r1", Schema::PaperSchema()).value();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(table->file()
                    .Append(Tuple({Value(int32_t{i % 50}),
                                   Value(std::string(5, 'b'))}))
                    .ok());
  }
  ASSERT_TRUE(table->file().Flush().ok());
  ASSERT_TRUE(table->BuildIndex(0).ok());
  ASSERT_NE(table->index(), nullptr);
  EXPECT_EQ(table->index()->size(), 200u);
  EXPECT_EQ(table->index()->Lookup(7).size(), 4u);  // 200/50 duplicates
  EXPECT_EQ(table->index_column(), 0);
}

TEST(CatalogTest, IndexOnTextColumnRejected) {
  DiskArray array(1, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* table = catalog.CreateTable("r1", Schema::PaperSchema()).value();
  EXPECT_EQ(table->BuildIndex(1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xprs
