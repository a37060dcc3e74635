#include "exec/scan_cursor.h"

#include <algorithm>

#include "exec/operators.h"

namespace xprs {

bool RecyclesPages(const HeapFile& file, const BufferPool& pool) {
  return file.num_pages() > pool.num_frames();
}

void MarkPagePassed(const HeapFile& file, BufferPool* pool, uint64_t scan_id,
                    uint32_t page) {
  if (file.PageNeededByOtherScan(scan_id, page)) return;
  auto block = file.BlockOf(page);
  if (block.ok()) pool->MarkDone(block.value());
}

void ScanCursor::Open(const HeapFile* file, const ExecContext* ctx,
                      int num_partitions, int partition_index) {
  Close();
  file_ = file;
  ctx_ = ctx;
  window_ = 0;
  recycle_ = false;
  const uint32_t pages = file->num_pages();
  if (ctx->pool == nullptr || num_partitions > 1) {
    step_ = static_cast<uint32_t>(num_partitions);
    page_ = static_cast<uint32_t>(partition_index);
    remaining_ = page_ < pages ? (pages - page_ + step_ - 1) / step_ : 0;
    return;
  }
  step_ = 1;
  remaining_ = pages;
  if (pages == 0) return;
  bool joined = false;
  scan_id_ = file->RegisterScan(&page_, &joined);
  recycle_ = RecyclesPages(*file, *ctx->pool);
  if (joined && ctx->obs.metrics != nullptr)
    ctx->obs.metrics->counter("scan.sync_joins")->Increment();
  window_ = std::min(ctx->pool->ReadAheadWindow(), pages - 1);
  // The first window: the next window_ pages, one or two per disk.
  for (uint32_t ahead = 1; ahead <= window_; ++ahead) PrefetchAhead(ahead);
}

Status ScanCursor::Load(PageHandle* pinned, Page* direct, const Page** page) {
  Status st = LoadPage(pinned, direct, page);
  if (!st.ok()) {
    pinned->Release();
    Close();
  }
  return st;
}

Status ScanCursor::LoadPage(PageHandle* pinned, Page* direct,
                            const Page** page) {
  if (ctx_->cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_->cancel->Check());
  if (ctx_->pool == nullptr) {
    XPRS_RETURN_IF_ERROR(file_->ReadPage(page_, direct));
    *page = direct;
    return Status::OK();
  }
  XPRS_ASSIGN_OR_RETURN(BlockId block, file_->BlockOf(page_));
  XPRS_ASSIGN_OR_RETURN(*pinned, FetchWithBackpressure(*ctx_, block));
  *page = &pinned->page();
  return Status::OK();
}

void ScanCursor::Advance() {
  if (remaining_ == 0) return;
  if (recycle_ && scan_id_ != 0)
    MarkPagePassed(*file_, ctx_->pool, scan_id_, page_);
  if (--remaining_ == 0) {
    Close();
    return;
  }
  page_ += step_;
  if (scan_id_ == 0) return;
  // A synchronized scan wraps to page 0 after the last page.
  if (page_ == file_->num_pages()) page_ = 0;
  file_->UpdateScan(scan_id_, page_);
  // Past the first window, one new read-ahead per page consumed.
  PrefetchAhead(window_);
}

void ScanCursor::PrefetchAhead(uint32_t ahead) {
  if (ahead == 0 || ahead >= remaining_) return;
  const uint32_t pages = file_->num_pages();
  auto block = file_->BlockOf((page_ + ahead) % pages);
  if (block.ok()) ctx_->pool->Prefetch(block.value());
}

void ScanCursor::Close() {
  if (scan_id_ == 0) return;
  file_->UnregisterScan(scan_id_);
  scan_id_ = 0;
}

}  // namespace xprs
