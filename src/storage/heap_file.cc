#include "storage/heap_file.h"

#include "util/check.h"
#include "util/str.h"

namespace xprs {

HeapFile::HeapFile(std::string name, Schema schema, DiskArray* array)
    : name_(std::move(name)), schema_(std::move(schema)), array_(array) {
  XPRS_CHECK(array_ != nullptr);
}

uint32_t HeapFile::num_pages() const {
  return static_cast<uint32_t>(block_map_.size()) + (tail_dirty_ ? 1 : 0);
}

Status HeapFile::Append(const Tuple& tuple) {
  std::vector<uint8_t> bytes;
  XPRS_RETURN_IF_ERROR(tuple.Serialize(schema_, &bytes));
  if (bytes.size() > MaxTuplePayload()) {
    return Status::InvalidArgument(
        StrFormat("tuple of %zu bytes exceeds page capacity", bytes.size()));
  }
  auto added = tail_.AddTuple(bytes.data(), static_cast<uint16_t>(bytes.size()));
  if (!added.ok()) {
    // Tail is full: persist it and start a fresh page.
    XPRS_RETURN_IF_ERROR(Flush());
    added = tail_.AddTuple(bytes.data(), static_cast<uint16_t>(bytes.size()));
    XPRS_CHECK(added.ok());
  }
  tail_dirty_ = true;
  ++num_tuples_;
  return Status::OK();
}

Status HeapFile::Flush() {
  if (!tail_dirty_) return Status::OK();
  BlockId block = array_->AllocateBlock();
  if (FaultInjector* injector = injector_.load(std::memory_order_acquire)) {
    // Per-file write hook: fails cleanly before media (no torn prefix
    // lands; the array's own injector models torn writes). Spill runs and
    // Grace partitions flush through here, so the spill-io fault domain is
    // exercisable per file.
    size_t bytes = 0;
    XPRS_RETURN_IF_ERROR(injector->BeforeWrite(block, &bytes));
  }
  XPRS_RETURN_IF_ERROR(array_->WriteBlock(block, tail_));
  block_map_.push_back(block);
  tail_.Init();
  tail_dirty_ = false;
  return Status::OK();
}

Status HeapFile::ReadPage(uint32_t index, Page* out) const {
  if (index >= block_map_.size()) {
    if (tail_dirty_ && index == block_map_.size()) {
      return Status::FailedPrecondition("unflushed tail page; call Flush()");
    }
    return Status::OutOfRange(
        StrFormat("page %u of %zu in %s", index, block_map_.size(),
                  name_.c_str()));
  }
  if (FaultInjector* injector = injector_.load(std::memory_order_acquire))
    XPRS_RETURN_IF_ERROR(injector->BeforeRead(block_map_[index]));
  return array_->ReadBlock(block_map_[index], out);
}

StatusOr<BlockId> HeapFile::BlockOf(uint32_t index) const {
  if (index >= block_map_.size())
    return Status::OutOfRange(
        StrFormat("page %u of %zu in %s", index, block_map_.size(),
                  name_.c_str()));
  return block_map_[index];
}

StatusOr<Tuple> HeapFile::ReadTuple(const TupleId& tid) const {
  Page page;
  XPRS_RETURN_IF_ERROR(ReadPage(tid.page, &page));
  const uint8_t* data;
  uint16_t size;
  XPRS_RETURN_IF_ERROR(page.GetTuple(tid.slot, &data, &size));
  return Tuple::Deserialize(schema_, data, size);
}

uint64_t HeapFile::RegisterScan(uint32_t* start_page, bool* joined) const {
  std::lock_guard<std::mutex> lock(scans_mutex_);
  *joined = !live_scans_.empty();
  *start_page = *joined ? live_scans_.back().page : 0;
  const uint64_t id = next_scan_id_++;
  live_scans_.push_back({id, *start_page, *start_page});
  return id;
}

void HeapFile::UpdateScan(uint64_t id, uint32_t page) const {
  std::lock_guard<std::mutex> lock(scans_mutex_);
  for (ScanSlot& slot : live_scans_)
    if (slot.id == id) slot.page = page;
}

void HeapFile::UnregisterScan(uint64_t id) const {
  std::lock_guard<std::mutex> lock(scans_mutex_);
  std::erase_if(live_scans_, [id](const ScanSlot& s) { return s.id == id; });
}

bool HeapFile::PageNeededByOtherScan(uint64_t id, uint32_t page) const {
  const uint32_t pages = num_pages();
  std::lock_guard<std::mutex> lock(scans_mutex_);
  for (const ScanSlot& s : live_scans_) {
    if (s.id == id) continue;
    // A scan covers every page once and leaves the registry on its last
    // page, so standing on its start page means the whole file is ahead.
    const uint32_t left = (s.start + pages - s.page) % pages;
    if (left == 0 || (page + pages - s.page) % pages < left) return true;
  }
  return false;
}

size_t HeapFile::live_scans() const {
  std::lock_guard<std::mutex> lock(scans_mutex_);
  return live_scans_.size();
}

double HeapFile::TuplesPerPage() const {
  uint32_t pages = static_cast<uint32_t>(block_map_.size());
  if (pages == 0) return 0.0;
  return static_cast<double>(num_tuples_) / pages;
}

}  // namespace xprs
