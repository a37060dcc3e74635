#include "storage/buffer_pool.h"

#include <algorithm>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

PageHandle::PageHandle(BufferPool* pool, size_t frame, const Page* page)
    : pool_(pool), frame_(frame), page_(page) {}

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_), page_(other.page_) {
  other.pool_ = nullptr;
  other.page_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

BufferPool::BufferPool(DiskArray* array, size_t num_frames) : array_(array) {
  XPRS_CHECK(array != nullptr);
  XPRS_CHECK_GE(num_frames, 1u);
  frames_.resize(num_frames);
}

BufferPool::~BufferPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (auto& queue : io_) queue->cv.notify_all();
  }
  for (auto& queue : io_)
    if (queue->thread.joinable()) queue->thread.join();
}

void BufferPool::Unpin(size_t frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  XPRS_CHECK_GT(frames_[frame].pins, 0);
  --frames_[frame].pins;
}

size_t BufferPool::ClaimVictimLocked() {
  while (!done_.empty()) {
    const size_t idx = done_.front();
    done_.pop_front();
    Frame& f = frames_[idx];
    f.listed = false;
    if (!f.done) continue;  // revived by a hit, or re-keyed by the clock
    f.done = false;
    if (f.pins > 0 || f.loading) continue;  // left to the clock
    ++stats_.recycled;
    if (recycled_counter_ != nullptr) recycled_counter_->Increment();
    return idx;
  }
  size_t scanned = 0;
  const size_t limit = 2 * frames_.size();
  while (scanned < limit) {
    Frame& f = frames_[clock_hand_];
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    ++scanned;
    if (f.pins > 0 || f.loading) continue;
    if (f.occupied && f.ref_bit) {
      f.ref_bit = false;
      continue;
    }
    return idx;
  }
  return frames_.size();
}

void BufferPool::InstallLocked(size_t frame, BlockId block) {
  Frame& f = frames_[frame];
  if (f.occupied) {
    table_.erase(f.block);
    if (f.prefetched) {
      ++stats_.prefetch_unused;
      if (unused_counter_ != nullptr) unused_counter_->Increment();
    }
  }
  f.block = block;
  f.occupied = true;
  f.loading = true;
  f.ref_bit = true;
  f.prefetched = false;
  f.done = false;
  table_[block] = frame;
}

void BufferPool::FinishLoadLocked(size_t frame, bool ok) {
  Frame& f = frames_[frame];
  f.loading = false;
  if (!ok) {
    table_.erase(f.block);
    f.occupied = false;
    f.prefetched = false;
    f.done = false;
    f.pins = 0;
  }
  load_cv_.notify_all();
}

void BufferPool::WaitForLoadLocked(bool* waited,
                                   std::unique_lock<std::mutex>* lock) {
  if (!*waited) {
    *waited = true;
    ++stats_.load_waits;
    if (load_waits_counter_ != nullptr) load_waits_counter_->Increment();
  }
  load_cv_.wait(*lock);
}

StatusOr<size_t> BufferPool::FindOrClaimLocked(
    BlockId block, bool* needs_load, std::unique_lock<std::mutex>* lock) {
  bool waited = false;
  for (;;) {
    auto it = table_.find(block);
    if (it != table_.end()) {
      const size_t idx = it->second;
      Frame& f = frames_[idx];
      if (f.loading) {
        // Another thread (a fetcher or an IO thread) is reading this
        // block; wait for its load.
        WaitForLoadLocked(&waited, lock);
        continue;  // re-lookup: the load may have failed and been evicted
      }
      ++f.pins;
      f.ref_bit = true;
      f.prefetched = false;
      f.done = false;
      ++stats_.hits;
      if (hits_counter_ != nullptr) hits_counter_->Increment();
      *needs_load = false;
      return idx;
    }

    // Miss under admission control: refuse to grow the pinned set past the
    // soft limit. The caller sees a retryable ResourceExhausted and backs
    // off (FetchWithBackpressure) or degrades to the spill path.
    if (soft_pin_limit_ > 0 && PinnedLocked() >= soft_pin_limit_) {
      if (backpressure_counter_ != nullptr)
        backpressure_counter_->Increment();
      return Status::ResourceExhausted(
          "buffer pool pin limit reached (backpressure)");
    }

    const size_t victim = ClaimVictimLocked();
    if (victim == frames_.size()) {
      // Read-ahead in flight holds frames without pins: wait for one to
      // land instead of reporting a pool that is merely busy as full.
      if (std::none_of(frames_.begin(), frames_.end(), [](const Frame& f) {
            return f.loading && f.pins == 0;
          }))
        return Status::ResourceExhausted("all buffer frames pinned");
      WaitForLoadLocked(&waited, lock);
      continue;
    }
    InstallLocked(victim, block);
    frames_[victim].pins = 1;
    ++stats_.misses;
    if (misses_counter_ != nullptr) misses_counter_->Increment();
    *needs_load = true;
    return victim;
  }
}

StatusOr<PageHandle> BufferPool::Fetch(BlockId block) {
  if (FaultInjector* inj = injector_.load(std::memory_order_acquire)) {
    XPRS_RETURN_IF_ERROR(inj->BeforeFetch(block));
  }
  bool needs_load = false;
  size_t frame;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto claimed = FindOrClaimLocked(block, &needs_load, &lock);
    if (!claimed.ok()) return claimed.status();
    frame = claimed.value();
  }

  if (needs_load) {
    // Disk read happens outside the pool latch so misses on different
    // disks proceed in parallel.
    Status st = array_->ReadBlock(block, &frames_[frame].page);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      FinishLoadLocked(frame, st.ok());
    }
    if (!st.ok()) return st;
  }
  return PageHandle(this, frame, &frames_[frame].page);
}

uint32_t BufferPool::ReadAheadWindow() const {
  if (array_->mode() != DiskMode::kThrottled) return 0;
  return static_cast<uint32_t>(std::min<size_t>(
      2 * static_cast<size_t>(array_->num_disks()), frames_.size() / 8));
}

void BufferPool::MarkDone(BlockId block) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = table_.find(block);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  f.done = true;
  if (!f.listed) {
    f.listed = true;
    done_.push_back(it->second);
  }
}

size_t BufferPool::DoneListSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_.size();
}

void BufferPool::Prefetch(BlockId block) {
  if (array_->mode() != DiskMode::kThrottled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_ || table_.count(block) > 0) return;
  if (soft_pin_limit_ > 0 && PinnedLocked() >= soft_pin_limit_) return;
  const size_t victim = ClaimVictimLocked();
  if (victim == frames_.size()) return;
  InstallLocked(victim, block);  // an unpinned victim: no pin is taken
  frames_[victim].prefetched = true;
  ++stats_.prefetches;
  if (prefetch_counter_ != nullptr) prefetch_counter_->Increment();

  if (io_.empty()) {
    for (int d = 0; d < array_->num_disks(); ++d)
      io_.push_back(std::make_unique<IoQueue>());
    for (auto& queue : io_)
      queue->thread = std::thread(&BufferPool::IoLoop, this, queue.get());
  }
  IoQueue& queue = *io_[array_->DiskOf(block)];
  queue.pending.emplace_back(block, victim);
  queue.cv.notify_one();
}

void BufferPool::IoLoop(IoQueue* queue) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue->cv.wait(lock,
                   [&] { return stopping_ || !queue->pending.empty(); });
    if (stopping_) {
      for (const auto& [block, frame] : queue->pending)
        FinishLoadLocked(frame, false);
      queue->pending.clear();
      return;
    }
    const auto [block, frame] = queue->pending.front();
    queue->pending.pop_front();
    lock.unlock();
    // A failed read is dropped: the next Fetch of the block reads it again
    // and reports the error on the foreground path.
    const bool ok = array_->ReadBlock(block, &frames_[frame].page).ok();
    lock.lock();
    FinishLoadLocked(frame, ok);
  }
}

void BufferPool::AttachMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  if (metrics != nullptr) {
    hits_counter_ = metrics->counter("bufferpool.hits");
    misses_counter_ = metrics->counter("bufferpool.misses");
    backpressure_counter_ = metrics->counter("bufferpool.backpressure");
    prefetch_counter_ = metrics->counter("bufferpool.prefetch.issued");
    unused_counter_ = metrics->counter("bufferpool.prefetch.unused");
    load_waits_counter_ = metrics->counter("bufferpool.load_waits");
    recycled_counter_ = metrics->counter("bufferpool.recycled");
  } else {
    hits_counter_ = nullptr;
    misses_counter_ = nullptr;
    backpressure_counter_ = nullptr;
    prefetch_counter_ = nullptr;
    unused_counter_ = nullptr;
    load_waits_counter_ = nullptr;
    recycled_counter_ = nullptr;
  }
}

void BufferPool::PublishMetrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (metrics_ == nullptr) return;
  metrics_->gauge("bufferpool.hit_rate")->Set(stats_.hit_rate());
  metrics_->gauge("bufferpool.frames")
      ->Set(static_cast<double>(frames_.size()));
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BufferPool::SetFaultInjector(FaultInjector* injector) {
  injector_.store(injector, std::memory_order_release);
}

void BufferPool::SetSoftPinLimit(size_t max_pinned_frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  soft_pin_limit_ = max_pinned_frames;
}

size_t BufferPool::PinnedLocked() const {
  size_t pinned = 0;
  for (const Frame& f : frames_)
    if (f.pins > 0) ++pinned;
  return pinned;
}

size_t BufferPool::PinnedFrames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return PinnedLocked();
}

uint64_t BufferPool::TotalPins() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const Frame& f : frames_) total += static_cast<uint64_t>(f.pins);
  return total;
}

std::string BufferPool::ToString() const {
  BufferPoolStats s = stats();
  return StrFormat(
      "BufferPool{%zu frames, hits=%llu misses=%llu (%.1f%%) "
      "prefetches=%llu unused=%llu load_waits=%llu recycled=%llu}",
      frames_.size(), static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses), s.hit_rate() * 100.0,
      static_cast<unsigned long long>(s.prefetches),
      static_cast<unsigned long long>(s.prefetch_unused),
      static_cast<unsigned long long>(s.load_waits),
      static_cast<unsigned long long>(s.recycled));
}

}  // namespace xprs
