// Striped disk array simulator.
//
// XPRS stripes every relation sequentially, block by block, round-robin
// across the disk array (§1). This component provides that layout plus the
// timing behaviour the paper measured (§3): per-disk service rates of
// 97 io/s for strictly sequential reads, 60 io/s for "almost sequential"
// reads (parallel scans whose requests arrive slightly out of order) and
// 35 io/s for random reads.
//
// Two modes:
//  - kInstant: reads return immediately; only the accounting runs. Used by
//    unit tests and by cost-model calibration.
//  - kThrottled: each read holds its disk for the service time (real
//    sleep), so concurrent scans experience genuine bandwidth contention.
//    Used by the throttle tests and by perfbench's served workloads; the
//    buffer pool's read-ahead only engages on this mode.

#ifndef XPRS_STORAGE_DISK_ARRAY_H_
#define XPRS_STORAGE_DISK_ARRAY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "storage/fault_injector.h"
#include "storage/page.h"
#include "util/status.h"

namespace xprs {

/// Global block number across the array; block b lives on disk b % D.
using BlockId = uint32_t;

/// Per-disk service times in seconds per io.
struct DiskTimings {
  double seq_read = 1.0 / 97.0;     ///< next block after the previous one
  double almost_seq_read = 1.0 / 60.0;  ///< short forward skip (reordered)
  double rand_read = 1.0 / 35.0;    ///< anything else
  /// A read within this many blocks *forward* of the previous one counts
  /// as almost sequential.
  uint32_t almost_seq_window = 16;

  /// Scales all three service times (1.0 = the paper's measured disks).
  /// Smaller is faster; benchmarks use < 1 to shorten wall-clock runs
  /// without changing any ratio.
  double time_scale = 1.0;
};

/// Execution mode of the array.
enum class DiskMode {
  kInstant,    ///< no delays, accounting only
  kThrottled,  ///< real sleeps; per-disk serialization
};

/// Per-disk counters.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t seq_reads = 0;
  uint64_t almost_seq_reads = 0;
  uint64_t rand_reads = 0;
  double busy_seconds = 0.0;  ///< modeled service time accumulated
  /// Service time paid *beyond* the strictly-sequential baseline — the
  /// seek-interference throttling cost of §2.3 (reordered / random reads
  /// caused by concurrent streams sharing the disk).
  double interference_seconds = 0.0;
};

/// The striped disk array. Thread-safe.
class DiskArray {
 public:
  DiskArray(int num_disks, DiskMode mode,
            const DiskTimings& timings = DiskTimings());

  int num_disks() const { return num_disks_; }
  DiskMode mode() const { return mode_; }

  /// Number of blocks allocated so far.
  BlockId num_blocks() const;

  /// Appends a zeroed block and returns its id. Round-robin placement is
  /// implied by the id.
  BlockId AllocateBlock();

  /// Disk a block lives on.
  int DiskOf(BlockId block) const { return static_cast<int>(block % num_disks_); }

  /// Reads a block into *out, applying the mode's timing model.
  Status ReadBlock(BlockId block, Page* out);

  /// Writes a block image (used by loaders; not timed — the paper's
  /// experiments are read-only).
  Status WriteBlock(BlockId block, const Page& in);

  /// Counters for one disk.
  DiskStats stats(int disk) const;

  /// Sum over all disks.
  DiskStats total_stats() const;

  /// Zeroes all counters.
  void ResetStats();

  /// Publishes live per-disk read counters (disk.<i>.reads) into `metrics`.
  void AttachMetrics(MetricsRegistry* metrics);

  /// Writes per-disk gauges (disk.<i>.busy_seconds,
  /// disk.<i>.interference_seconds, read-class breakdown) into the attached
  /// registry. No-op if detached.
  void PublishMetrics() const;

  /// Fault injection for tests: the next `count` ReadBlock calls fail
  /// with IoError (decrementing per call). Thread-safe.
  void FailNextReads(int count);

  /// Remaining injected read faults.
  int pending_faults() const;

  /// Installs a fault-injection hook consulted on every read and write
  /// (nullptr detaches). The injector must outlive its installation.
  /// Thread-safe with concurrent IO.
  void SetFaultInjector(FaultInjector* injector);

  std::string ToString() const;

 private:
  struct DiskState {
    std::mutex mutex;          // serializes service on this disk
    int64_t last_block = -1;   // per-disk block index of the previous read
    DiskStats stats;
    Counter* reads_counter = nullptr;  // disk.<i>.reads (live)
  };

  const int num_disks_;
  const DiskMode mode_;
  const DiskTimings timings_;

  mutable std::mutex blocks_mutex_;  // guards allocation / deque growth
  std::deque<Page> blocks_;          // deque: growth keeps references stable
  std::atomic<int> pending_faults_{0};
  std::atomic<FaultInjector*> injector_{nullptr};

  std::vector<std::unique_ptr<DiskState>> disks_;
  MetricsRegistry* metrics_ = nullptr;
};

}  // namespace xprs

#endif  // XPRS_STORAGE_DISK_ARRAY_H_
