#include "exec/scan_cursor.h"

#include <algorithm>

#include "exec/operators.h"

namespace xprs {

namespace {

// True when scans of `file` through `pool` recycle the pages they pass:
// the file has more pages than the pool has frames.
bool RecyclesPages(const HeapFile& file, const BufferPool& pool) {
  return file.num_pages() > pool.num_frames();
}

// Marks page `page` of `file` done in `pool` unless a live synchronized
// scan other than `scan_id` still has it ahead.
void MarkPagePassed(const HeapFile& file, BufferPool* pool, uint64_t scan_id,
                    uint32_t page) {
  if (file.PageNeededByOtherScan(scan_id, page)) return;
  auto block = file.BlockOf(page);
  if (block.ok()) pool->MarkDone(block.value());
}

}  // namespace

void ScanCursor::Reset(const HeapFile* file, const ExecContext* ctx,
                       uint32_t pages) {
  Close();
  file_ = file;
  ctx_ = ctx;
  pages_ = pages;
  start_ = 0;
  step_ = 1;
  total_ = pages;
  window_ = 0;
  scan_id_ = 0;
  recycle_ = false;
  next_ = low_ = 0;
  closed_ = false;
}

void ScanCursor::Open(const HeapFile* file, const ExecContext* ctx,
                      int num_partitions, int partition_index) {
  Reset(file, ctx, file->num_pages());
  if (ctx->pool == nullptr || num_partitions > 1) {
    step_ = static_cast<uint32_t>(num_partitions);
    start_ = static_cast<uint32_t>(partition_index);
    total_ = start_ < pages_ ? (pages_ - start_ + step_ - 1) / step_ : 0;
    return;
  }
  if (pages_ == 0) return;
  bool joined = false;
  scan_id_ = file->RegisterScan(&start_, &joined);
  registered_ = true;
  passed_.assign(pages_, false);
  recycle_ = RecyclesPages(*file, *ctx->pool);
  if (joined && ctx->obs.metrics != nullptr)
    ctx->obs.metrics->counter("scan.sync_joins")->Increment();
  window_ = std::min(ctx->pool->ReadAheadWindow(), pages_ - 1);
  // The first window: the next window_ pages, one or two per disk.
  for (uint32_t index = 1; index <= window_; ++index) Prefetch(index);
}

void ScanCursor::OpenGranules(uint32_t count) {
  Reset(nullptr, nullptr, count);
}

std::optional<uint32_t> ScanCursor::Take() {
  uint32_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || next_ == total_) return std::nullopt;
    index = next_++;
  }
  // Past the first window, one new read-ahead per page handed out.
  if (index > 0) Prefetch(index + window_);
  return PageAt(index);
}

Status ScanCursor::Load(uint32_t page, PageHandle* pinned, Page* direct,
                        const Page** out) {
  Status st = LoadPage(page, pinned, direct, out);
  if (!st.ok()) {
    pinned->Release();
    Close();
  }
  return st;
}

Status ScanCursor::LoadPage(uint32_t page, PageHandle* pinned, Page* direct,
                            const Page** out) {
  if (ctx_->cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_->cancel->Check());
  if (ctx_->pool == nullptr) {
    XPRS_RETURN_IF_ERROR(file_->ReadPage(page, direct));
    *out = direct;
    return Status::OK();
  }
  XPRS_ASSIGN_OR_RETURN(BlockId block, file_->BlockOf(page));
  XPRS_ASSIGN_OR_RETURN(*pinned, FetchWithBackpressure(*ctx_, block));
  *out = &pinned->page();
  return Status::OK();
}

void ScanCursor::Pass(uint32_t page) {
  if (scan_id_ == 0) return;
  if (recycle_) MarkPagePassed(*file_, ctx_->pool, scan_id_, page);
  std::lock_guard<std::mutex> lock(mutex_);
  passed_[(page + pages_ - start_) % pages_] = true;
  const uint32_t low = low_;
  while (low_ < total_ && passed_[low_]) ++low_;
  if (low_ == low || !registered_) return;
  if (low_ == total_) {
    UnregisterLocked();
  } else {
    file_->UpdateScan(scan_id_, PageAt(low_));
  }
}

void ScanCursor::Prefetch(uint32_t index) {
  if (window_ == 0 || index >= total_) return;
  auto block = file_->BlockOf(PageAt(index));
  if (block.ok()) ctx_->pool->Prefetch(block.value());
}

uint32_t ScanCursor::taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_;
}

bool ScanCursor::exhausted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_ || next_ == total_;
}

void ScanCursor::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  UnregisterLocked();
}

void ScanCursor::UnregisterLocked() {
  if (!registered_) return;
  file_->UnregisterScan(scan_id_);
  registered_ = false;
}

}  // namespace xprs
