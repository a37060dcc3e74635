// Driving source operators bound to a fragment run's shared granules.
//
// Each slave backend of a parallel fragment runs a copy of the fragment's
// pipeline whose *driving* source pulls work granules from state the
// slaves share instead of owning a static slice: heap pages and
// materialized-batch indexes from the run's one ScanCursor (the same
// dispenser a serial scan uses, exec/scan_cursor.h), key chunks from the
// range partition (Figure 6). Dynamic parallelism adjustment then only
// touches the shared state; the pipelines never notice.

#ifndef XPRS_PARALLEL_DRIVEN_OPS_H_
#define XPRS_PARALLEL_DRIVEN_OPS_H_

#include <atomic>
#include <memory>
#include <optional>

#include "exec/operators.h"
#include "exec/scan_cursor.h"
#include "parallel/range_partition.h"

namespace xprs {

/// One slave's view of its run's shared cursor: slot `slot` takes the
/// next granule while it is below the run's degree of parallelism, so a
/// lowered degree retires the slot at its next granule boundary (§2.4).
struct SlaveGranules {
  ScanCursor* cursor = nullptr;
  const std::atomic<int>* degree = nullptr;
  int slot = 0;

  std::optional<uint32_t> Next() const {
    if (slot >= degree->load(std::memory_order_acquire)) return std::nullopt;
    return cursor->Take();
  }
};

/// Sequential scan driven by the run's cursor (one slave of the scan): it
/// decodes the pages it takes; the cursor does the IO.
class DrivenSeqScanOp : public Operator {
 public:
  DrivenSeqScanOp(Table* table, Predicate predicate, SlaveGranules granules);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  /// Hands a page left half-decoded back to the cursor.
  Status Close() override;
  const Schema& schema() const override { return table_->schema(); }

 private:
  Table* const table_;
  const Predicate predicate_;
  const SlaveGranules granules_;

  bool page_loaded_ = false;
  uint32_t page_ = 0;  // the page being scanned
  Page direct_page_;
  PageHandle pooled_page_;
  const Page* current_ = nullptr;
  uint16_t next_slot_ = 0;
};

/// Range-partition driven index scan (one slave of the scan).
class DrivenIndexScanOp : public Operator {
 public:
  DrivenIndexScanOp(Table* table, Predicate predicate, ExecContext ctx,
                    AdjustableRangeScan* shared, int slot);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  const Schema& schema() const override { return table_->schema(); }

 private:
  Table* const table_;
  const Predicate predicate_;
  const ExecContext ctx_;
  AdjustableRangeScan* const shared_;
  const int slot_;

  std::optional<BTreeIndex::Iterator> it_;
};

/// Source over a materialized intermediate driven by the run's cursor:
/// its granules are fixed-size tuple batches of the TempResult.
class DrivenTempSourceOp : public Operator {
 public:
  static constexpr size_t kBatchTuples = 64;

  /// Number of batches a TempResult of `num_tuples` spans.
  static uint32_t NumBatches(size_t num_tuples);

  DrivenTempSourceOp(const TempResult* temp, SlaveGranules granules);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  const Schema& schema() const override { return temp_->schema; }

 private:
  const TempResult* const temp_;
  const SlaveGranules granules_;

  size_t pos_ = 0;
  size_t batch_end_ = 0;
  bool have_batch_ = false;
};

}  // namespace xprs

#endif  // XPRS_PARALLEL_DRIVEN_OPS_H_
