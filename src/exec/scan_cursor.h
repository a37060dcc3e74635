// Page order of one sequential scan over a heap file, shared by the tuple
// (SeqScanOp) and batch (BatchSeqScanOp) scans.
//
// A partitioned scan — worker i of n, §2.4 page partitioning — visits pages
// i, i+n, i+2n, ... A serial scan through a buffer pool cooperates with the
// other scans of its file instead:
//  - synchronized start: it begins at the page of the most recently started
//    live scan of the file and wraps around, covering every page once, so
//    scans that overlap read each page from disk once (the follower's reads
//    are pool hits). A lone scan starts at page 0, in the file's order.
//  - read-ahead: it keeps BufferPool::ReadAheadWindow() pages in flight
//    ahead of itself, so every disk of the stripe stays busy while it
//    decodes (on a kInstant array the window is 0).
//  - recycling: when the file has more pages than the pool has frames, no
//    replacement policy can keep it cached from one scan to the next. A
//    page the scan steps off that no other live scan has ahead of it is
//    marked done, so the pool reuses its frame first and the small
//    relations scanned beside the file stay cached.
// The registration ends on Close, at EOF, on any Load error and in the
// destructor, so a cancelled scan never strands a position others join.

#ifndef XPRS_EXEC_SCAN_CURSOR_H_
#define XPRS_EXEC_SCAN_CURSOR_H_

#include <cstdint>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace xprs {

struct ExecContext;

/// True when scans of `file` through `pool` recycle the pages they pass:
/// the file has more pages than the pool has frames.
bool RecyclesPages(const HeapFile& file, const BufferPool& pool);

/// Marks page `page` of `file` done in `pool` unless a live synchronized
/// scan other than `scan_id` (0: any) still has it ahead.
void MarkPagePassed(const HeapFile& file, BufferPool* pool, uint64_t scan_id,
                    uint32_t page);

class ScanCursor {
 public:
  ScanCursor() = default;
  ~ScanCursor() { Close(); }
  ScanCursor(const ScanCursor&) = delete;
  ScanCursor& operator=(const ScanCursor&) = delete;

  /// Positions the cursor on the scan's first page; re-opening restarts
  /// it. `ctx` must outlive the scan.
  void Open(const HeapFile* file, const ExecContext* ctx, int num_partitions,
            int partition_index);

  /// True once every page of the scan has been visited.
  bool done() const { return remaining_ == 0; }

  /// Reads the current page after polling ctx.cancel: pinned into *pinned
  /// through the pool (backpressure retried per ctx.fetch_retry), or copied
  /// into *direct without one. *page points at the result.
  Status Load(PageHandle* pinned, Page* direct, const Page** page);

  /// Steps to the scan's next page. Release the current page's pin first:
  /// the page may be marked done.
  void Advance();

  /// Leaves the file's live-scan registry (idempotent).
  void Close();

 private:
  Status LoadPage(PageHandle* pinned, Page* direct, const Page** page);
  // Queues the read of the page `ahead` pages past the current one.
  void PrefetchAhead(uint32_t ahead);

  const HeapFile* file_ = nullptr;
  const ExecContext* ctx_ = nullptr;
  uint32_t page_ = 0;       // current page
  uint32_t step_ = 1;       // pages between visits
  uint32_t remaining_ = 0;  // pages left, the current one included
  uint32_t window_ = 0;     // read-ahead depth; 0 = none
  uint64_t scan_id_ = 0;    // registry id; 0 = not registered
  bool recycle_ = false;    // mark passed pages done (RecyclesPages)
};

}  // namespace xprs

#endif  // XPRS_EXEC_SCAN_CURSOR_H_
