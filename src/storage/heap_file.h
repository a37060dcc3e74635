// Heap file: a relation stored as a sequence of slotted pages striped
// across the disk array.

#ifndef XPRS_STORAGE_HEAP_FILE_H_
#define XPRS_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "storage/page.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace xprs {

/// A relation's pages. Loading is single-writer (setup phase); reads are
/// thread-safe and go through the disk array's timing model.
///
/// The file also keeps the registry of its live synchronized scans: pooled
/// scans (a serial one, or the slaves of a parallel run as one) register
/// for as long as they run and report the page they are on,
/// so a scan that starts while others run can join the most recently
/// started one at its current page and share its page reads. The registry
/// also answers which pages a live scan still has ahead of it, so a scan
/// that passes a page can tell the buffer pool nobody needs it any more.
class HeapFile {
 public:
  HeapFile(std::string name, Schema schema, DiskArray* array);

  /// Movable (setup phase only — not concurrently with readers). The
  /// atomic injector slot blocks the implicit move; the installed hook
  /// travels with the file.
  HeapFile(HeapFile&& other) noexcept
      : name_(other.name_),
        schema_(other.schema_),
        array_(other.array_),
        injector_(other.injector_.load(std::memory_order_relaxed)),
        block_map_(std::move(other.block_map_)),
        tail_(other.tail_),
        tail_dirty_(other.tail_dirty_),
        num_tuples_(other.num_tuples_) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Pages in the file.
  uint32_t num_pages() const;

  /// Tuples in the file.
  uint64_t num_tuples() const { return num_tuples_; }

  /// Appends a tuple, allocating a fresh page when the current one fills.
  /// Call Flush() after the last Append.
  Status Append(const Tuple& tuple);

  /// Writes out the partially filled tail page, if any.
  Status Flush();

  /// Reads file-local page `index` (0-based) into *out, paying disk time.
  Status ReadPage(uint32_t index, Page* out) const;

  /// Global block id backing file-local page `index` (for buffer pools and
  /// tuple ids that reference the file-local page number).
  StatusOr<BlockId> BlockOf(uint32_t index) const;

  /// Reads the tuple identified by `tid` (page = file-local page index).
  /// Pays one page read per call; callers that scan should use ReadPage.
  StatusOr<Tuple> ReadTuple(const TupleId& tid) const;

  /// Average tuples per page (0 when empty).
  double TuplesPerPage() const;

  /// Installs (nullptr clears) a fault hook consulted by ReadPage — and
  /// therefore ReadTuple — before the backing block read, and by Flush
  /// before the backing block write (so spill runs and Grace partitions,
  /// which append through heap files, are write-fault-testable per file;
  /// a write fault fails before media, no torn prefix lands). The disk
  /// array's own injector covers every relation on the array; this one
  /// targets a single heap file so index-scan fetch and spill write paths
  /// are fault-testable in isolation. Thread-safe; the injector must
  /// outlive its installation.
  void SetFaultInjector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  /// Registers a live scan. Returns its registry id; *start_page is the
  /// current page of the most recently started live scan, or 0 when none
  /// runs (*joined tells which). Thread-safe, like the two below.
  uint64_t RegisterScan(uint32_t* start_page, bool* joined) const;

  /// Records that scan `id` moved to `page`.
  void UpdateScan(uint64_t id, uint32_t page) const;

  /// Removes scan `id` from the registry.
  void UnregisterScan(uint64_t id) const;

  /// True when a live scan other than `id` (0: any live scan) still has
  /// `page` ahead of it: the page lies in the cyclic range from the page
  /// the scan is on up to, not including, the page it started on.
  bool PageNeededByOtherScan(uint64_t id, uint32_t page) const;

  /// Live scans registered (tests).
  size_t live_scans() const;

 private:
  const std::string name_;
  const Schema schema_;
  DiskArray* const array_;

  std::atomic<FaultInjector*> injector_{nullptr};
  std::vector<BlockId> block_map_;  // file page index -> global block
  Page tail_;                       // page being filled by Append
  bool tail_dirty_ = false;
  uint64_t num_tuples_ = 0;

  struct ScanSlot {
    uint64_t id = 0;
    uint32_t start = 0;  // the page the scan started on
    uint32_t page = 0;   // the page the scan is on
  };
  // Synchronized-scan registry, in start order. Scans of a loaded file
  // only read it, so the registry is mutable state of a const file.
  mutable std::mutex scans_mutex_;
  mutable std::vector<ScanSlot> live_scans_;
  mutable uint64_t next_scan_id_ = 1;
};

}  // namespace xprs

#endif  // XPRS_STORAGE_HEAP_FILE_H_
