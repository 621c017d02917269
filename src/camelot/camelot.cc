#include "src/camelot/camelot.h"

#include <cstring>
#include <set>

namespace rvm {
namespace {

// The Disk Manager pages recoverable regions against the external data
// segment itself (no separate swap — §3.2): a fault is two messages to the
// DM plus a data-segment read; a dirty eviction is a data-segment write.
class CamelotPager : public Pager {
 public:
  CamelotPager(SimClock* clock, SimIpc* ipc, SimDisk* data_disk,
               uint64_t page_size, uint64_t disk_base, int ipcs_per_fault)
      : clock_(clock),
        ipc_(ipc),
        data_disk_(data_disk),
        page_size_(page_size),
        disk_base_(disk_base),
        ipcs_per_fault_(ipcs_per_fault) {}

  void PageIn(uint64_t page) override {
    clock_->ChargeCpu(kFaultServiceCpuMicros);
    for (int i = 0; i < ipcs_per_fault_; ++i) {
      ipc_->Rpc(64);
    }
    data_disk_->Read(disk_base_ + page * page_size_, page_size_);
  }

  static constexpr double kFaultServiceCpuMicros = 600.0;
  void PageOut(uint64_t page) override {
    // DM writeback of an evicted dirty page: asynchronous.
    ipc_->BackgroundRpc(64);
    data_disk_->WriteBackground(disk_base_ + page * page_size_, page_size_);
  }

 private:
  SimClock* clock_;
  SimIpc* ipc_;
  SimDisk* data_disk_;
  uint64_t page_size_;
  uint64_t disk_base_;
  int ipcs_per_fault_;
};

}  // namespace

struct CamelotEngine::Region {
  SegmentId segment_id = kInvalidSegmentId;
  std::string path;
  uint64_t length = 0;
  std::vector<uint8_t> memory;
  std::unique_ptr<File> file;
  int vm_space = -1;
  std::unique_ptr<CamelotPager> pager;
  // Pages with committed changes not yet written back (the DM's writeback
  // work list).
  std::set<uint64_t> dirty_pages;
  // Disk placement of this segment on the data disk (for seek modeling).
  uint64_t disk_base = 0;
};

struct CamelotEngine::Txn {
  struct RegionRanges {
    Region* region;
    IntervalSet covered;
    std::set<uint64_t> pinned_pages;
  };
  std::map<Region*, RegionRanges> regions;
  std::vector<std::tuple<Region*, uint64_t, std::vector<uint8_t>>> old_values;
};

CamelotEngine::CamelotEngine(SimEnv* env, SimClock* clock, SimIpc* ipc,
                             SimVm* vm, SimDisk* data_disk,
                             CamelotConfig config)
    : env_(env),
      clock_(clock),
      ipc_(ipc),
      vm_(vm),
      data_disk_(data_disk),
      config_(config) {}

CamelotEngine::~CamelotEngine() = default;

Status CamelotEngine::AttachLog(const std::string& log_path,
                                uint64_t log_size) {
  if (!env_->Exists(log_path)) {
    RVM_RETURN_IF_ERROR(LogDevice::Create(env_, log_path, log_size, false));
  }
  RVM_ASSIGN_OR_RETURN(log_, LogDevice::Open(env_, log_path));
  return OkStatus();
}

StatusOr<void*> CamelotEngine::MapRegion(const std::string& segment_path,
                                         uint64_t length) {
  if (log_ == nullptr) {
    return FailedPrecondition("no log attached");
  }
  // Recovery for this segment: apply committed log records newest-first
  // (same no-undo/redo discipline; the log format is shared with RVM).
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env_->Open(segment_path, OpenMode::kCreateIfMissing));
  RVM_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < length) {
    RVM_RETURN_IF_ERROR(file->Resize(length));
  }

  auto region = std::make_unique<Region>();
  region->path = segment_path;
  region->length = length;
  region->memory.resize(length);

  // Assign a segment id from the log's dictionary.
  SegmentId id = kInvalidSegmentId;
  for (const SegmentDictEntry& entry : log_->status().segments) {
    if (entry.path == segment_path) {
      id = entry.id;
    }
  }
  if (id == kInvalidSegmentId) {
    id = log_->status().next_segment_id++;
    log_->status().segments.push_back({id, segment_path});
    RVM_RETURN_IF_ERROR(log_->WriteStatus());
  }
  region->segment_id = id;

  // Replay committed records for this segment into the file image, then load
  // the memory image from it (latest committed value wins).
  RVM_RETURN_IF_ERROR(log_->ExtendTailForward().status());
  IntervalSet covered;
  LogDevice::LiveRecords walk(*log_);
  for (;;) {
    RVM_ASSIGN_OR_RETURN(const OwnedRecord* record, walk.Next());
    if (record == nullptr) {
      break;
    }
    for (const RangeView& range : record->parsed.ranges) {
      if (range.segment != id) {
        continue;
      }
      for (const Interval& piece :
           covered.Uncovered(range.offset, range.offset + range.data.size())) {
        RVM_RETURN_IF_ERROR(file->WriteAt(
            piece.start,
            range.data.subspan(piece.start - range.offset, piece.length())));
      }
      covered.Add(range.offset, range.offset + range.data.size());
    }
  }
  RVM_RETURN_IF_ERROR(file->Sync());
  RVM_ASSIGN_OR_RETURN(size_t read, file->ReadAt(0, region->memory));
  (void)read;
  region->file = std::move(file);

  // Demand paging through the DM: pages start NON-resident (§3.2 — Camelot
  // avoids RVM's en-masse copy-in).
  if (vm_ != nullptr) {
    region->disk_base = next_disk_base_;
    next_disk_base_ += length + (1ull << 20);
    region->pager = std::make_unique<CamelotPager>(
        clock_, ipc_, data_disk_, config_.page_size, region->disk_base,
        config_.ipcs_per_page_fault);
    region->vm_space =
        vm_->CreateSpace(region->pager.get(),
                         (length + config_.page_size - 1) / config_.page_size);
  }

  void* base = region->memory.data();
  regions_.emplace(reinterpret_cast<uintptr_t>(base), std::move(region));
  return base;
}

StatusOr<CamelotEngine::Region*> CamelotEngine::FindRegion(const void* address,
                                                           uint64_t length) {
  uintptr_t addr = reinterpret_cast<uintptr_t>(address);
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) {
    return NotFound("address not in a mapped Camelot region");
  }
  --it;
  if (addr < it->first || addr + length > it->first + it->second->length) {
    return NotFound("range not contained in a Camelot region");
  }
  return it->second.get();
}

void CamelotEngine::TouchPages(Region& region, uint64_t start, uint64_t end,
                               bool write) {
  if (vm_ == nullptr || region.vm_space < 0) {
    return;
  }
  for (uint64_t page = start / config_.page_size;
       page <= (end - 1) / config_.page_size; ++page) {
    vm_->Touch(region.vm_space, page, write);
  }
}

void CamelotEngine::TouchForRead(const void* address, uint64_t length) {
  auto region = FindRegion(address, length);
  if (!region.ok()) {
    return;
  }
  uint64_t start = reinterpret_cast<uintptr_t>(address) -
                   reinterpret_cast<uintptr_t>((*region)->memory.data());
  TouchPages(**region, start, start + length, false);
}

StatusOr<TransactionId> CamelotEngine::Begin() {
  for (int i = 0; i < config_.ipcs_per_begin; ++i) {
    ipc_->Rpc(32);
  }
  clock_->ChargeCpu(config_.begin_us);
  TransactionId tid = next_tid_++;
  txns_[tid];
  return tid;
}

Status CamelotEngine::SetRange(TransactionId tid, void* base, uint64_t length) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) {
    return NotFound("no such Camelot transaction");
  }
  RVM_ASSIGN_OR_RETURN(Region * region, FindRegion(base, length));
  // Pin/unpin advisory messages to the DM are asynchronous (the library
  // need not wait for the reply), so their CPU overlaps I/O waits.
  for (int i = 0; i < config_.ipcs_per_set_range; ++i) {
    ipc_->BackgroundRpc(48);
  }
  clock_->ChargeCpu(config_.set_range_us);

  uint64_t start = reinterpret_cast<uintptr_t>(base) -
                   reinterpret_cast<uintptr_t>(region->memory.data());
  uint64_t end = start + length;
  Txn::RegionRanges& ranges = it->second.regions[region];
  ranges.region = region;

  // Old-value capture for abort support.
  for (const Interval& piece : ranges.covered.Uncovered(start, end)) {
    it->second.old_values.emplace_back(
        region, piece.start,
        std::vector<uint8_t>(region->memory.begin() + piece.start,
                             region->memory.begin() + piece.end));
    clock_->ChargeCpu(config_.copy_us_per_byte * static_cast<double>(piece.length()));
  }
  ranges.covered.Add(start, end);

  // Touch + pin: dirty recoverable pages stay resident until commit (§3.2).
  TouchPages(*region, start, end, true);
  if (vm_ != nullptr && region->vm_space >= 0) {
    for (uint64_t page = start / config_.page_size;
         page <= (end - 1) / config_.page_size; ++page) {
      if (ranges.pinned_pages.insert(page).second) {
        vm_->Pin(region->vm_space, page);
      }
    }
  }
  return OkStatus();
}

Status CamelotEngine::End(TransactionId tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) {
    return NotFound("no such Camelot transaction");
  }
  Txn txn = std::move(it->second);
  txns_.erase(it);

  for (int i = 0; i < config_.ipcs_per_commit; ++i) {
    ipc_->Rpc(96);
  }
  clock_->ChargeCpu(config_.commit_fixed_us);

  // Build one record with the new values and force it (via the DM's log).
  std::vector<RangeView> views;
  std::vector<std::vector<uint8_t>> buffers;
  uint64_t bytes = 0;
  for (auto& [region, ranges] : txn.regions) {
    for (const Interval& piece : ranges.covered.ToVector()) {
      buffers.emplace_back(region->memory.begin() + piece.start,
                           region->memory.begin() + piece.end);
      RangeView view;
      view.segment = region->segment_id;
      view.offset = piece.start;
      view.data = buffers.back();
      views.push_back(view);
      bytes += piece.length();
    }
  }
  if (!views.empty()) {
    StatusOr<uint64_t> offset = log_->AppendTransaction(tid, views);
    if (!offset.ok() && offset.status().code() == ErrorCode::kLogFull) {
      RVM_RETURN_IF_ERROR(log_->Sync());
      RVM_RETURN_IF_ERROR(TruncateIfNeeded());
      offset = log_->AppendTransaction(tid, views);
    }
    if (!offset.ok()) {
      return offset.status();
    }
    RVM_RETURN_IF_ERROR(log_->Sync());
  }
  // Manager-task work (TM coordination, DM log handling) overlaps the force.
  clock_->ChargeOverlappableCpu(config_.manager_cpu_per_commit_us +
                                config_.manager_cpu_per_byte_us *
                                    static_cast<double>(bytes));

  // Unpin; pages become writeback candidates.
  for (auto& [region, ranges] : txn.regions) {
    for (const Interval& piece : ranges.covered.ToVector()) {
      for (uint64_t page = piece.start / config_.page_size;
           page <= (piece.end - 1) / config_.page_size; ++page) {
        region->dirty_pages.insert(page);
      }
    }
    if (vm_ != nullptr && region->vm_space >= 0) {
      for (uint64_t page : ranges.pinned_pages) {
        vm_->Unpin(region->vm_space, page);
      }
    }
  }
  ++committed_;
  return TruncateIfNeeded();
}

Status CamelotEngine::Abort(TransactionId tid) {
  auto it = txns_.find(tid);
  if (it == txns_.end()) {
    return NotFound("no such Camelot transaction");
  }
  Txn& txn = it->second;
  for (auto ov = txn.old_values.rbegin(); ov != txn.old_values.rend(); ++ov) {
    auto& [region, offset, bytes] = *ov;
    std::memcpy(region->memory.data() + offset, bytes.data(), bytes.size());
  }
  for (auto& [region, ranges] : txn.regions) {
    if (vm_ != nullptr && region->vm_space >= 0) {
      for (uint64_t page : ranges.pinned_pages) {
        vm_->Unpin(region->vm_space, page);
      }
    }
  }
  txns_.erase(it);
  return OkStatus();
}

Status CamelotEngine::TruncateIfNeeded() {
  if (log_ == nullptr ||
      log_->used() <= static_cast<uint64_t>(config_.truncation_threshold *
                                            static_cast<double>(log_->capacity()))) {
    return OkStatus();
  }
  // "The Disk Manager writes out all dirty pages referenced by entries in
  // the affected portion of the log" (§7.1.2). The single DM task serializes
  // this with forward processing, so the disk time is on the critical path.
  // Pages are written in ascending offset order (elevator scheduling), but a
  // referenced page that has been paged out must first be faulted back in —
  // this is the "much higher levels of paging activity sustained by the
  // Camelot Disk Manager" under random access.
  RVM_RETURN_IF_ERROR(log_->Sync());
  for (auto& [base, region] : regions_) {
    for (uint64_t page : region->dirty_pages) {
      uint64_t offset = page * config_.page_size;
      uint64_t len = std::min(config_.page_size, region->length - offset);
      if (vm_ != nullptr && region->vm_space >= 0) {
        if (!vm_->IsResident(region->vm_space, page)) {
          vm_->Touch(region->vm_space, page, /*write=*/false);  // fault back in
        }
        vm_->MarkClean(region->vm_space, page);
      }
      RVM_RETURN_IF_ERROR(region->file->WriteAt(
          offset, std::span<const uint8_t>(region->memory.data() + offset, len)));
      if (data_disk_ != nullptr) {
        data_disk_->Write(region->disk_base + offset, len);
      }
      ++truncation_pages_;
    }
    region->dirty_pages.clear();
    RVM_RETURN_IF_ERROR(region->file->Sync());
  }
  log_->MarkEmpty();
  RVM_RETURN_IF_ERROR(log_->WriteStatus());
  ++truncations_;
  return OkStatus();
}

}  // namespace rvm
