// The page dispenser of a sequential scan over a heap file, shared by the
// serial scans (SeqScanOp, BatchSeqScanOp) and by the slaves of a parallel
// fragment run (parallel/fragment_run.h).
//
// Any number of takers share one cursor: Take hands out the scan's pages
// one at a time, each exactly once, and a taker calls Pass when it is done
// with a page. A serial scan is one taker; a fragment run's slaves are n
// takers of the run's one cursor, so their CPU work spreads over the slaves
// while the file sees the IO of a single scan. Without a pool the pages go
// out in file order. A static partition — worker i of n, §2.4 page
// partitioning — hands out pages i, i+n, i+2n, ... and does nothing else.
//
// A scan through a buffer pool cooperates with the other scans of its file
// (the convoy: concurrent scans of one table that share its page reads):
//  - synchronized start: it begins at the page of the most recently started
//    live scan of the file and wraps around, covering every page once, so
//    scans that overlap read each page from disk once (the follower's reads
//    are pool hits). A lone scan starts at page 0, in the file's order.
//  - read-ahead: it keeps BufferPool::ReadAheadWindow() pages in flight
//    ahead of the highest page handed out, so every disk of the stripe
//    stays busy while the takers decode (on a kInstant array the window
//    is 0).
//  - position: the page it reports to the file's registry is the oldest
//    page a taker still holds (or the next to hand out), so the pages in
//    flight count as ahead of it for PageNeededByOtherScan.
//  - recycling: when the file has more pages than the pool has frames, no
//    replacement policy can keep it cached from one scan to the next. A
//    page passed that no other live scan has ahead of it is marked done,
//    so the pool reuses its frame first and the small relations scanned
//    beside the file stay cached.
// The registration ends when the last page is passed, on Close, on any
// Load error and in the destructor, so a cancelled scan never strands a
// position others join. After a Load error or Close, Take hands out
// nothing more.
//
// OpenGranules makes the same dispenser over granules 0..n-1 with no file
// behind them (the tuple batches of a materialized input).

#ifndef XPRS_EXEC_SCAN_CURSOR_H_
#define XPRS_EXEC_SCAN_CURSOR_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "util/status.h"

namespace xprs {

struct ExecContext;

class ScanCursor {
 public:
  ScanCursor() = default;
  ~ScanCursor() { Close(); }
  ScanCursor(const ScanCursor&) = delete;
  ScanCursor& operator=(const ScanCursor&) = delete;

  /// Positions the cursor on the scan's first page; re-opening restarts
  /// it. `ctx` must outlive the scan. Not concurrent with the takers.
  void Open(const HeapFile* file, const ExecContext* ctx,
            int num_partitions = 1, int partition_index = 0);

  /// Opens a dispenser of granules 0..count-1, in order, over no file.
  void OpenGranules(uint32_t count);

  /// Takes the scan's next page (granule), or nothing once every one has
  /// been handed out or the cursor is closed. Thread-safe.
  std::optional<uint32_t> Take();

  /// Reads taken page `page` after polling ctx.cancel: pinned into *pinned
  /// through the pool (backpressure retried per ctx.fetch_retry), or copied
  /// into *direct without one. *out points at the result. An error closes
  /// the cursor. Thread-safe.
  Status Load(uint32_t page, PageHandle* pinned, Page* direct,
              const Page** out);

  /// The taker is done with taken page `page`. Release its pin first: the
  /// page may be marked done. Thread-safe.
  void Pass(uint32_t page);

  /// Leaves the file's live-scan registry and stops handing out pages
  /// (idempotent). Thread-safe.
  void Close();

  /// Pages (granules) handed out so far.
  uint32_t taken() const;

  /// True once every page has been handed out or the cursor is closed.
  bool exhausted() const;

 private:
  // Closes the cursor and points it at scan index 0 of `pages` pages in
  // file order, unregistered.
  void Reset(const HeapFile* file, const ExecContext* ctx, uint32_t pages);
  Status LoadPage(uint32_t page, PageHandle* pinned, Page* direct,
                  const Page** out);
  uint32_t PageAt(uint32_t index) const {
    return (start_ + index * step_) % pages_;
  }
  // Queues the read of the page at scan index `index`, if in the scan.
  void Prefetch(uint32_t index);
  void UnregisterLocked();

  // Set by Open, read-only while takers run.
  const HeapFile* file_ = nullptr;
  const ExecContext* ctx_ = nullptr;
  uint32_t pages_ = 0;      // pages of the file
  uint32_t start_ = 0;      // page of scan index 0
  uint32_t step_ = 1;       // pages between scan indexes
  uint32_t total_ = 0;      // scan indexes
  uint32_t window_ = 0;     // read-ahead depth; 0 = none
  uint64_t scan_id_ = 0;    // registry id; 0 = not a synchronized scan
  bool recycle_ = false;    // mark passed pages done (RecyclesPages)

  mutable std::mutex mutex_;
  uint32_t next_ = 0;             // next scan index to hand out
  uint32_t low_ = 0;              // oldest scan index not yet passed
  std::vector<bool> passed_;      // by scan index; synchronized scans only
  bool registered_ = false;       // in the file's registry
  bool closed_ = false;
};

}  // namespace xprs

#endif  // XPRS_EXEC_SCAN_CURSOR_H_
