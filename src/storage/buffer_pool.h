// Shared buffer pool with clock (second-chance) replacement.
//
// All backends of the real-thread executor share one pool, as in XPRS's
// shared-memory design. Frames are pinned while in use; a miss performs the
// disk read outside the pool latch so concurrent misses on different disks
// overlap — this is what lets an IO-bound and a CPU-bound fragment genuinely
// share the machine.
//
// On a throttled array the pool also reads ahead for sequential scans:
// Prefetch queues a block's read to an IO thread of the block's disk (one
// per disk, started by the first Prefetch and joined by the destructor), so
// a scan keeps every disk of the stripe busy while it decodes. A Fetch of a
// block still loading waits for that load to finish.
//
// Scans of a relation larger than the pool tell it which pages no live scan
// will read again (MarkDone). Those frames are reused before the clock
// sweeps, so a big relation streams through a few frames instead of
// flushing the small relations scanned beside it.

#ifndef XPRS_STORAGE_BUFFER_POOL_H_
#define XPRS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "storage/disk_array.h"
#include "storage/page.h"
#include "util/status.h"

namespace xprs {

class BufferPool;

/// RAII pin on a buffered page. Unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame, const Page* page);
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }
  const Page& page() const { return *page_; }

  /// Explicit early release.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  const Page* page_ = nullptr;
};

/// Buffer pool statistics.
struct BufferPoolStats {
  uint64_t hits = 0;    ///< fetches served without reading the block
  uint64_t misses = 0;  ///< fetches that read the block themselves
  uint64_t prefetches = 0;       ///< read-ahead loads queued by Prefetch
  uint64_t prefetch_unused = 0;  ///< prefetched, then evicted unpinned
  uint64_t load_waits = 0;  ///< fetches that blocked on an in-flight load
  uint64_t recycled = 0;    ///< frames claimed from the done list
  double hit_rate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Fixed-size page cache over a DiskArray. Thread-safe.
class BufferPool {
 public:
  BufferPool(DiskArray* array, size_t num_frames);
  /// Joins the IO threads; queued read-ahead that has not started is
  /// dropped.
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  size_t num_frames() const { return frames_.size(); }

  /// Returns a pinned handle on the block, reading it from disk on a miss.
  /// Fails with ResourceExhausted when every frame is pinned; a frame held
  /// only by read-ahead in flight is waited for instead.
  StatusOr<PageHandle> Fetch(BlockId block);

  /// Best-effort asynchronous read-ahead: claims an unpinned frame for the
  /// block and queues its read to the IO thread of the block's disk. The
  /// frame holds no pin; a later Fetch of the block waits for the load and
  /// is then a hit. Skipped when the block is resident or loading, when no
  /// frame is free, when the soft pin limit is reached, and on a kInstant
  /// array (a read there is a memcpy; there is no latency to hide). A read
  /// that fails rolls the claim back silently: the next Fetch reads the
  /// block itself and surfaces the error.
  void Prefetch(BlockId block);

  /// Pages a sequential scan keeps in flight ahead of itself: two per disk,
  /// so each disk serves two consecutive local blocks and the second is a
  /// sequential read, capped at an eighth of the pool so read-ahead cannot
  /// flood a small one. 0 on a kInstant array.
  uint32_t ReadAheadWindow() const;

  /// Records that no live scan will read `block` again: its frame goes on
  /// the done list, which Fetch and Prefetch take victims from before the
  /// clock sweeps. Takes no pin and leaves the frame's pins and load state
  /// alone; a no-op when the block is not resident. A later hit on the
  /// block revives it, and a done frame that is pinned or loading when a
  /// claim reaches it is left to the clock.
  void MarkDone(BlockId block);

  /// Entries on the done list (tests). Each frame is on it at most once.
  size_t DoneListSize() const;

  /// Publishes live counters into `metrics` (bufferpool.hits,
  /// bufferpool.misses, bufferpool.backpressure, bufferpool.prefetch.issued,
  /// bufferpool.prefetch.unused, bufferpool.load_waits,
  /// bufferpool.recycled). Call before handing the pool to workers.
  void AttachMetrics(MetricsRegistry* metrics);

  /// Writes the current hit rate and frame count gauges into the attached
  /// registry (bufferpool.hit_rate, bufferpool.frames). No-op if detached.
  void PublishMetrics() const;

  BufferPoolStats stats() const;

  /// Installs a fault-injection hook consulted at the top of every Fetch
  /// (nullptr detaches). Thread-safe with concurrent fetches.
  void SetFaultInjector(FaultInjector* injector);

  /// Admission control under memory-pages pressure: when `max_pinned_frames`
  /// is > 0, a miss that finds at least that many frames already pinned is
  /// refused with a retryable ResourceExhausted instead of claiming a
  /// frame. Hits on resident pages are never refused — the requester
  /// already holds the memory, and refusing re-pins would livelock scans
  /// that bounce on the page they just released. 0 (default) disables the
  /// limit. Thread-safe.
  void SetSoftPinLimit(size_t max_pinned_frames);

  /// Number of frames currently pinned (pins > 0). The differential
  /// harness asserts this returns to zero after every run — a leaked pin
  /// means some error path skipped an unpin.
  size_t PinnedFrames() const;

  /// Sum of pin counts over all frames.
  uint64_t TotalPins() const;

  std::string ToString() const;

 private:
  friend class PageHandle;

  struct Frame {
    Page page;
    BlockId block = 0;
    bool occupied = false;
    bool loading = false;     // a thread is reading it from disk
    bool ref_bit = false;     // clock second chance
    bool prefetched = false;  // loaded by Prefetch, not yet fetched
    bool done = false;        // no live scan reads it again (MarkDone)
    bool listed = false;      // has an entry on done_
    int pins = 0;
  };

  // Read-ahead queue of one disk, drained by its IO thread.
  struct IoQueue {
    std::deque<std::pair<BlockId, size_t>> pending;  // (block, frame)
    std::condition_variable cv;
    std::thread thread;
  };

  void Unpin(size_t frame);
  size_t PinnedLocked() const;

  // Finds the frame holding `block` or claims a victim for it. Returns the
  // frame index and whether a disk load is needed; called under mutex_.
  StatusOr<size_t> FindOrClaimLocked(BlockId block, bool* needs_load,
                                     std::unique_lock<std::mutex>* lock);
  // Takes the oldest done frame that is unpinned and not loading, else
  // sweeps the clock (two passes: the first clears reference bits, the
  // second takes the first unpinned frame). Returns frames_.size() when
  // every frame is pinned or loading.
  size_t ClaimVictimLocked();
  // Blocks until some load ends (or a spurious wake); counts the calling
  // fetch in load_waits once, however often it waits.
  void WaitForLoadLocked(bool* waited, std::unique_lock<std::mutex>* lock);
  // Re-keys `frame` to `block` and marks it loading.
  void InstallLocked(size_t frame, BlockId block);
  // Ends `frame`'s load: on failure the claim is rolled back so waiters
  // re-look the block up and the frame is reusable. Wakes every waiter.
  void FinishLoadLocked(size_t frame, bool ok);
  void IoLoop(IoQueue* queue);

  DiskArray* const array_;
  mutable std::mutex mutex_;
  std::vector<Frame> frames_;
  std::condition_variable load_cv_;  // signaled when any load completes
  std::unordered_map<BlockId, size_t> table_;  // block -> frame
  // Frames marked done, oldest first. An entry whose frame was revived or
  // re-keyed since is dropped when a claim reaches it.
  std::deque<size_t> done_;
  size_t clock_hand_ = 0;
  size_t soft_pin_limit_ = 0;  // 0 = no admission control
  BufferPoolStats stats_;

  MetricsRegistry* metrics_ = nullptr;
  Counter* hits_counter_ = nullptr;    // bufferpool.hits
  Counter* misses_counter_ = nullptr;  // bufferpool.misses
  Counter* backpressure_counter_ = nullptr;  // bufferpool.backpressure
  Counter* prefetch_counter_ = nullptr;      // bufferpool.prefetch.issued
  Counter* unused_counter_ = nullptr;        // bufferpool.prefetch.unused
  Counter* load_waits_counter_ = nullptr;    // bufferpool.load_waits
  Counter* recycled_counter_ = nullptr;      // bufferpool.recycled

  std::atomic<FaultInjector*> injector_{nullptr};

  // Per-disk read-ahead queues (guarded by mutex_); threads start lazily.
  std::vector<std::unique_ptr<IoQueue>> io_;
  bool stopping_ = false;
};

}  // namespace xprs

#endif  // XPRS_STORAGE_BUFFER_POOL_H_
