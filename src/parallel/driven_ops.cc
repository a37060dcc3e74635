#include "parallel/driven_ops.h"

#include "util/check.h"

namespace xprs {

// --------------------------------------------------------- DrivenSeqScan

DrivenSeqScanOp::DrivenSeqScanOp(Table* table, Predicate predicate,
                                 SlaveGranules granules)
    : table_(table), predicate_(std::move(predicate)), granules_(granules) {
  XPRS_CHECK(table != nullptr);
  XPRS_CHECK(granules.cursor != nullptr);
}

Status DrivenSeqScanOp::Open() {
  page_loaded_ = false;
  next_slot_ = 0;
  current_ = nullptr;
  pooled_page_.Release();
  return Status::OK();
}

Status DrivenSeqScanOp::Close() {
  if (page_loaded_) {
    page_loaded_ = false;
    pooled_page_.Release();
    granules_.cursor->Pass(page_);
  }
  return Status::OK();
}

Status DrivenSeqScanOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (!page_loaded_) {
      std::optional<uint32_t> page = granules_.Next();
      if (!page.has_value()) {
        *eof = true;
        return Status::OK();
      }
      page_ = *page;
      XPRS_RETURN_IF_ERROR(granules_.cursor->Load(page_, &pooled_page_,
                                                  &direct_page_, &current_));
      ProfPagesRead(1);
      page_loaded_ = true;
      next_slot_ = 0;
    }
    while (next_slot_ < current_->num_tuples()) {
      const uint8_t* data;
      uint16_t size;
      XPRS_RETURN_IF_ERROR(current_->GetTuple(next_slot_, &data, &size));
      ++next_slot_;
      XPRS_ASSIGN_OR_RETURN(Tuple tuple,
                            Tuple::Deserialize(table_->schema(), data, size));
      if (ProfEval(predicate_, tuple)) {
        *out = std::move(tuple);
        return Status::OK();
      }
    }
    page_loaded_ = false;
    pooled_page_.Release();
    granules_.cursor->Pass(page_);
  }
}

// ------------------------------------------------------- DrivenIndexScan

DrivenIndexScanOp::DrivenIndexScanOp(Table* table, Predicate predicate,
                                     ExecContext ctx,
                                     AdjustableRangeScan* shared, int slot)
    : table_(table),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      shared_(shared),
      slot_(slot) {
  XPRS_CHECK(table != nullptr);
  XPRS_CHECK(shared != nullptr);
  XPRS_CHECK_MSG(table->index() != nullptr, "index scan without index");
}

Status DrivenIndexScanOp::Open() {
  it_.reset();
  return Status::OK();
}

Status DrivenIndexScanOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    // One random page read per iteration: poll the token per tuple.
    if (ctx_.cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_.cancel->Check());
    if (!it_.has_value() || !it_->Valid()) {
      std::optional<KeyRange> chunk = shared_->NextChunk(slot_);
      if (!chunk.has_value()) {
        *eof = true;
        return Status::OK();
      }
      XPRS_ASSIGN_OR_RETURN(it_,
                            table_->index()->ScanChecked(chunk->lo, chunk->hi));
      continue;
    }
    TupleId tid = it_->tid();
    it_->Next();
    Tuple tuple;
    if (ctx_.pool != nullptr) {
      XPRS_ASSIGN_OR_RETURN(BlockId block, table_->file().BlockOf(tid.page));
      auto handle = FetchWithBackpressure(ctx_, block);
      if (!handle.ok()) return handle.status();
      const uint8_t* data;
      uint16_t size;
      XPRS_RETURN_IF_ERROR(handle->page().GetTuple(tid.slot, &data, &size));
      XPRS_ASSIGN_OR_RETURN(tuple,
                            Tuple::Deserialize(table_->schema(), data, size));
    } else {
      XPRS_ASSIGN_OR_RETURN(tuple, table_->file().ReadTuple(tid));
    }
    ProfPagesRead(1);  // one random page per fetched tuple (§3)
    if (ProfEval(predicate_, tuple)) {
      *out = std::move(tuple);
      return Status::OK();
    }
  }
}

// ------------------------------------------------------ DrivenTempSource

uint32_t DrivenTempSourceOp::NumBatches(size_t num_tuples) {
  return static_cast<uint32_t>((num_tuples + kBatchTuples - 1) / kBatchTuples);
}

DrivenTempSourceOp::DrivenTempSourceOp(const TempResult* temp,
                                       SlaveGranules granules)
    : temp_(temp), granules_(granules) {
  XPRS_CHECK(temp != nullptr);
  XPRS_CHECK(granules.cursor != nullptr);
}

Status DrivenTempSourceOp::Open() {
  have_batch_ = false;
  return Status::OK();
}

Status DrivenTempSourceOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (!have_batch_) {
      std::optional<uint32_t> batch = granules_.Next();
      if (!batch.has_value()) {
        *eof = true;
        return Status::OK();
      }
      pos_ = static_cast<size_t>(*batch) * kBatchTuples;
      batch_end_ = std::min(pos_ + kBatchTuples, temp_->tuples.size());
      have_batch_ = true;
    }
    if (pos_ < batch_end_) {
      *out = temp_->tuples[pos_++];
      return Status::OK();
    }
    have_batch_ = false;
  }
}

}  // namespace xprs
