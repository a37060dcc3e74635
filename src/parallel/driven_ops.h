// Driving source operators bound to a shared adjustable partition.
//
// Each slave backend of a parallel fragment runs a copy of the fragment's
// pipeline whose *driving* source pulls work granules (pages, key chunks,
// or materialized-batch indexes) from the shared partition state instead of
// owning a static slice. Dynamic parallelism adjustment then only touches
// the shared state; the pipelines never notice.

#ifndef XPRS_PARALLEL_DRIVEN_OPS_H_
#define XPRS_PARALLEL_DRIVEN_OPS_H_

#include <memory>
#include <optional>

#include "exec/operators.h"
#include "parallel/page_partition.h"
#include "parallel/range_partition.h"

namespace xprs {

/// Page-partition driven sequential scan (one slave of the scan).
class DrivenSeqScanOp : public Operator {
 public:
  DrivenSeqScanOp(Table* table, Predicate predicate, ExecContext ctx,
                  AdjustablePageScan* shared, int slot);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  const Schema& schema() const override { return table_->schema(); }

 private:
  Table* const table_;
  const Predicate predicate_;
  const ExecContext ctx_;
  AdjustablePageScan* const shared_;
  const int slot_;

  bool page_loaded_ = false;
  bool recycle_ = false;  // mark passed pages done (RecyclesPages)
  uint32_t page_ = 0;     // the page being scanned
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

/// Page-partition driven source over a materialized intermediate: "pages"
/// are fixed-size tuple batches of the TempResult.
class DrivenTempSourceOp : public Operator {
 public:
  static constexpr size_t kBatchTuples = 64;

  /// Number of virtual pages a TempResult of `num_tuples` spans.
  static uint32_t NumBatches(size_t num_tuples);

  DrivenTempSourceOp(const TempResult* temp, AdjustablePageScan* shared,
                     int slot);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  const Schema& schema() const override { return temp_->schema; }

 private:
  const TempResult* const temp_;
  AdjustablePageScan* const shared_;
  const int slot_;

  size_t pos_ = 0;
  size_t batch_end_ = 0;
  bool have_batch_ = false;
};

}  // namespace xprs

#endif  // XPRS_PARALLEL_DRIVEN_OPS_H_
