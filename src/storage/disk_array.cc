#include "storage/disk_array.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

DiskArray::DiskArray(int num_disks, DiskMode mode, const DiskTimings& timings)
    : num_disks_(num_disks), mode_(mode), timings_(timings) {
  XPRS_CHECK_GE(num_disks, 1);
  disks_.reserve(num_disks_);
  for (int i = 0; i < num_disks_; ++i)
    disks_.push_back(std::make_unique<DiskState>());
}

BlockId DiskArray::num_blocks() const {
  std::lock_guard<std::mutex> lock(blocks_mutex_);
  return static_cast<BlockId>(blocks_.size());
}

BlockId DiskArray::AllocateBlock() {
  std::lock_guard<std::mutex> lock(blocks_mutex_);
  blocks_.emplace_back();
  return static_cast<BlockId>(blocks_.size() - 1);
}

Status DiskArray::ReadBlock(BlockId block, Page* out) {
  XPRS_CHECK(out != nullptr);
  // Injected fault (tests): consume one pending fault atomically.
  int pending = pending_faults_.load(std::memory_order_relaxed);
  while (pending > 0) {
    if (pending_faults_.compare_exchange_weak(pending, pending - 1)) {
      return Status::IoError(
          StrFormat("injected read fault on block %u", block));
    }
  }
  if (FaultInjector* inj = injector_.load(std::memory_order_acquire)) {
    XPRS_RETURN_IF_ERROR(inj->BeforeRead(block));
  }
  // Look the page up under the lock: emplace_back may move the deque's
  // internal map, but never an element, so the pointer stays valid after
  // the lock is released.
  const Page* src;
  {
    std::lock_guard<std::mutex> lock(blocks_mutex_);
    if (block >= blocks_.size())
      return Status::OutOfRange(StrFormat("block %u of %zu", block,
                                          blocks_.size()));
    src = &blocks_[block];
  }

  DiskState& disk = *disks_[DiskOf(block)];
  // The per-disk block index: consecutive *global* blocks land on
  // consecutive disks, so a striped sequential scan advances each disk's
  // local index by exactly one per round.
  const int64_t local = static_cast<int64_t>(block / num_disks_);

  std::lock_guard<std::mutex> disk_lock(disk.mutex);
  double service;
  if (disk.last_block >= 0 && local == disk.last_block + 1) {
    service = timings_.seq_read;
    ++disk.stats.seq_reads;
  } else if (disk.last_block >= 0 && local > disk.last_block &&
             local <= disk.last_block + timings_.almost_seq_window) {
    service = timings_.almost_seq_read;
    ++disk.stats.almost_seq_reads;
  } else if (disk.last_block < 0 && local == 0) {
    // First touch at the start of the platter counts as sequential.
    service = timings_.seq_read;
    ++disk.stats.seq_reads;
  } else {
    service = timings_.rand_read;
    ++disk.stats.rand_reads;
  }
  service *= timings_.time_scale;
  disk.last_block = local;
  ++disk.stats.reads;
  disk.stats.busy_seconds += service;
  // Everything beyond the sequential-read baseline is interference cost:
  // time lost to seeks caused by out-of-order or competing streams.
  disk.stats.interference_seconds +=
      std::max(0.0, service - timings_.seq_read * timings_.time_scale);
  if (disk.reads_counter != nullptr) disk.reads_counter->Increment();

  if (mode_ == DiskMode::kThrottled) {
    std::this_thread::sleep_for(std::chrono::duration<double>(service));
  }

  std::memcpy(out->raw(), src->raw(), kPageSize);
  return Status::OK();
}

Status DiskArray::WriteBlock(BlockId block, const Page& in) {
  Status fault = Status::OK();
  size_t bytes = kPageSize;
  if (FaultInjector* inj = injector_.load(std::memory_order_acquire)) {
    fault = inj->BeforeWrite(block, &bytes);
  }
  std::lock_guard<std::mutex> lock(blocks_mutex_);
  if (block >= blocks_.size())
    return Status::OutOfRange(StrFormat("block %u of %zu", block,
                                        blocks_.size()));
  // A failing write still lands its torn prefix on media, as a real torn
  // write would; a clean write copies the whole page.
  std::memcpy(blocks_[block].raw(), in.raw(),
              fault.ok() ? kPageSize : std::min(bytes, kPageSize));
  return fault;
}

DiskStats DiskArray::stats(int disk) const {
  XPRS_CHECK_GE(disk, 0);
  XPRS_CHECK_LT(disk, num_disks_);
  std::lock_guard<std::mutex> lock(disks_[disk]->mutex);
  return disks_[disk]->stats;
}

DiskStats DiskArray::total_stats() const {
  DiskStats total;
  for (int i = 0; i < num_disks_; ++i) {
    DiskStats s = stats(i);
    total.reads += s.reads;
    total.seq_reads += s.seq_reads;
    total.almost_seq_reads += s.almost_seq_reads;
    total.rand_reads += s.rand_reads;
    total.busy_seconds += s.busy_seconds;
    total.interference_seconds += s.interference_seconds;
  }
  return total;
}

void DiskArray::AttachMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (int i = 0; i < num_disks_; ++i) {
    std::lock_guard<std::mutex> lock(disks_[i]->mutex);
    disks_[i]->reads_counter =
        metrics == nullptr ? nullptr
                           : metrics->counter(StrFormat("disk.%d.reads", i));
  }
}

void DiskArray::PublishMetrics() const {
  if (metrics_ == nullptr) return;
  double total_interference = 0.0;
  for (int i = 0; i < num_disks_; ++i) {
    DiskStats s = stats(i);
    metrics_->gauge(StrFormat("disk.%d.busy_seconds", i))
        ->Set(s.busy_seconds);
    metrics_->gauge(StrFormat("disk.%d.interference_seconds", i))
        ->Set(s.interference_seconds);
    metrics_->gauge(StrFormat("disk.%d.seq_reads", i))
        ->Set(static_cast<double>(s.seq_reads));
    metrics_->gauge(StrFormat("disk.%d.almost_seq_reads", i))
        ->Set(static_cast<double>(s.almost_seq_reads));
    metrics_->gauge(StrFormat("disk.%d.rand_reads", i))
        ->Set(static_cast<double>(s.rand_reads));
    total_interference += s.interference_seconds;
  }
  metrics_->gauge("disk.total_interference_seconds")->Set(total_interference);
}

void DiskArray::FailNextReads(int count) {
  XPRS_CHECK_GE(count, 0);
  pending_faults_.store(count, std::memory_order_relaxed);
}

int DiskArray::pending_faults() const {
  return pending_faults_.load(std::memory_order_relaxed);
}

void DiskArray::SetFaultInjector(FaultInjector* injector) {
  injector_.store(injector, std::memory_order_release);
}

void DiskArray::ResetStats() {
  for (auto& d : disks_) {
    std::lock_guard<std::mutex> lock(d->mutex);
    d->stats = DiskStats{};
    d->last_block = -1;
  }
}

std::string DiskArray::ToString() const {
  DiskStats t = total_stats();
  return StrFormat(
      "DiskArray{%d disks, %u blocks, reads=%llu (seq=%llu almost=%llu "
      "rand=%llu), busy=%.3fs}",
      num_disks_, num_blocks(), static_cast<unsigned long long>(t.reads),
      static_cast<unsigned long long>(t.seq_reads),
      static_cast<unsigned long long>(t.almost_seq_reads),
      static_cast<unsigned long long>(t.rand_reads), t.busy_seconds);
}

}  // namespace xprs
