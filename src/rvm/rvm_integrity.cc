// Data-segment integrity (DESIGN.md §14): checksum-sidecar refresh, online
// scrubbing, log-based page repair, and eager verify-on-map.
//
// The paper trusts external data segments blindly ("RVM does not provide
// media recovery", §3.1). This file closes that gap end to end: truncation
// and recovery refresh a per-page CRC32 sidecar after every segment write
// (RefreshPageChecksumsBothLocked, called from rvm_truncation.cc between the
// segment syncs and the log-head advance), scrubs verify the segment files
// against the sidecar in small batches under the staged locks, and a
// mismatched page is either repaired from the newest committed image still
// present in the shard's live log (pre-truncation window) or escalated to
// the shard quarantine machinery of DESIGN.md §13.
#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "src/rvm/rvm.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace rvm {

namespace {
// Pages verified per lock acquisition in a scrub: large enough to amortize
// loading the sidecar, small enough that commits blocked behind a batch wait
// for at most ~128 KiB of reads and CRCs.
constexpr uint64_t kScrubBatchPages = 32;
}  // namespace

// A page's recorded CRC is defined over its bytes ZERO-PADDED to the page
// size (every CRC below runs over a full page_size buffer whose tail beyond
// the file's extent is zeroed). Segment files grow to the exact extent of
// the highest applied byte, so the last page is often partial; a later
// Map() rounds the file up to a page boundary by appending zeros. Padding
// makes that extension a CRC no-op, so a checksum recorded against the
// partial page stays valid.

StatusOr<std::string> RvmInstance::SegmentPathBothLocked(LogShard& shard,
                                                         SegmentId id) {
  for (const SegmentDictEntry& entry : shard.log->status().segments) {
    if (entry.id == id) {
      return entry.path;
    }
  }
  // Shard 0's dictionary is the allocation source of truth; reading it
  // without its log_mu is safe because the dictionary is only mutated under
  // state_mu_ (see OpenSegmentBothLocked).
  if (&shard != shards_[0].get()) {
    for (const SegmentDictEntry& entry : shards_[0]->log->status().segments) {
      if (entry.id == id) {
        return entry.path;
      }
    }
  }
  return NotFound("segment id not in dictionary");
}

Status RvmInstance::RefreshPageChecksumsBothLocked(
    LogShard& shard, SegmentId id, File& file,
    const std::vector<Interval>& written) {
  if (!checksums_enabled_ || written.empty()) {
    return OkStatus();
  }
  RVM_ASSIGN_OR_RETURN(std::string path, SegmentPathBothLocked(shard, id));
  SegmentChecksumMap chk = SegmentChecksumMap::Load(env_, path, page_size_);
  RVM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  // Re-read every touched page from the file rather than trusting the
  // in-memory source: the sidecar must describe the durable bytes, whatever
  // they are.
  std::set<uint64_t> pages;
  for (const Interval& range : written) {
    for (uint64_t page = range.start / page_size_;
         page * page_size_ < range.end; ++page) {
      pages.insert(page);
    }
  }
  std::vector<uint8_t> buf(page_size_);
  for (uint64_t page : pages) {
    const uint64_t start = page * page_size_;
    if (start >= size) {
      continue;
    }
    const uint64_t len = std::min(page_size_, size - start);
    std::memset(buf.data(), 0, page_size_);
    RVM_ASSIGN_OR_RETURN(size_t got,
                         file.ReadAt(start, std::span<uint8_t>(buf.data(), len)));
    if (got < len) {
      std::memset(buf.data() + got, 0, len - got);
    }
    chk.Set(page, Crc32(std::span<const uint8_t>(buf.data(), page_size_)));
    cpu_.Copy(page_size_);
  }
  return chk.Save(env_);
}

StatusOr<bool> RvmInstance::TryRepairPageFromLogBothLocked(
    LogShard& shard, SegmentId id, File& file, uint64_t page,
    uint64_t page_len, SegmentChecksumMap* chk) {
  // Newest-record-wins walk restricted to one page of one segment — the same
  // chain ApplyLogToSegmentsBothLocked follows, including the prepare filter
  // (DESIGN.md §12): a repair must reconstruct exactly what a truncation
  // would have written.
  const uint64_t target_start = page * page_size_;
  const uint64_t target_end = target_start + page_len;
  std::vector<uint8_t> image(page_size_, 0);
  IntervalSet covered;
  LogDevice::LiveRecords walk(*shard.log);
  while (covered.total_length() < page_len) {
    RVM_ASSIGN_OR_RETURN(const OwnedRecord* next, walk.Next());
    if (next == nullptr) {
      break;
    }
    const ParsedRecord& record = next->parsed;  // a filler has no ranges
    if ((record.header.flags & kRecordFlagShardPrepare) &&
        aborted_gtids_.contains(record.header.tid)) {
      continue;
    }
    for (const RangeView& range : record.ranges) {
      if (range.segment != id) {
        continue;
      }
      const uint64_t lo = std::max(range.offset, target_start);
      const uint64_t hi =
          std::min(range.offset + range.data.size(), target_end);
      if (lo >= hi) {
        continue;
      }
      for (const Interval& piece : covered.Uncovered(lo, hi)) {
        std::memcpy(image.data() + (piece.start - target_start),
                    range.data.data() + (piece.start - range.offset),
                    piece.length());
      }
      covered.Add(lo, hi);
    }
  }
  if (covered.total_length() < page_len) {
    // The page's newest committed image predates the last truncation: the
    // log cannot regenerate it. The caller escalates.
    return false;
  }
  RVM_RETURN_IF_ERROR(file.WriteAt(
      target_start, std::span<const uint8_t>(image.data(), page_len)));
  RVM_RETURN_IF_ERROR(file.Sync());
  if (chk != nullptr) {
    chk->Set(page, Crc32(std::span<const uint8_t>(image.data(), page_size_)));
  }
  ++stats_.pages_repaired;
  RecordEvent(SpanKind::kPageRepair, page, 0, id);
  RVM_LOG_INFO("repaired segment %llu page %llu from live log records",
               static_cast<unsigned long long>(id),
               static_cast<unsigned long long>(page));
  return true;
}

Status RvmInstance::ScrubSegmentPages(uint32_t shard_index, SegmentId id,
                                      const std::string& segment_path,
                                      uint64_t first_page, uint64_t page_end,
                                      ScrubReport* report) {
  uint64_t page = first_page;
  while (true) {
    // One batch per acquisition of the staged locks, released in between so
    // an online scrub never stalls commits for more than one batch.
    std::lock_guard<std::mutex> lock(state_mu_);
    RVM_RETURN_IF_ERROR(FailIfPoisoned());
    LogShard& shard = *shards_[shard_index];
    if (shard.health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      return OkStatus();  // quarantined mid-scrub: stop, stay contained
    }
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    if (!segment_files_.contains(id)) {
      if (!env_->Exists(segment_path)) {
        return OkStatus();  // named in the dictionary but never written
      }
      RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           env_->Open(segment_path, OpenMode::kCreateIfMissing));
      segment_files_[id] = std::move(file);
    }
    File& file = *segment_files_[id];
    RVM_ASSIGN_OR_RETURN(uint64_t size, file.Size());
    uint64_t limit = (size + page_size_ - 1) / page_size_;
    if (page_end != 0) {
      limit = std::min(limit, page_end);
    }
    if (page >= limit) {
      return OkStatus();
    }
    SegmentChecksumMap chk =
        SegmentChecksumMap::Load(env_, segment_path, page_size_);
    const uint64_t batch_end = std::min(limit, page + kScrubBatchPages);
    std::vector<uint8_t> buf(page_size_);
    for (; page < batch_end; ++page) {
      const uint64_t start = page * page_size_;
      const uint64_t len = std::min(page_size_, size - start);
      std::memset(buf.data(), 0, page_size_);
      RVM_ASSIGN_OR_RETURN(
          size_t got, file.ReadAt(start, std::span<uint8_t>(buf.data(), len)));
      if (got < len) {
        std::memset(buf.data() + got, 0, len - got);
      }
      const uint32_t crc = Crc32(std::span<const uint8_t>(buf.data(), page_size_));
      cpu_.Copy(page_size_);
      ++report->pages_scrubbed;
      ++stats_.pages_scrubbed;
      if (!chk.known(page)) {
        // Trust-on-first-read: adopt the current image as the baseline.
        chk.Set(page, crc);
        continue;
      }
      if (crc == chk.crc(page)) {
        continue;
      }
      ++report->mismatches;
      ++stats_.checksum_mismatches;
      RecordEvent(SpanKind::kChecksumMismatch, page, 0, id);
      RVM_ASSIGN_OR_RETURN(
          bool repaired,
          TryRepairPageFromLogBothLocked(shard, id, file, page, len, &chk));
      if (repaired) {
        ++report->repaired;
        continue;
      }
      // Unrepairable: keep the (stale-good) sidecar entry so later scrubs
      // still flag the page, persist the batch's baselines, and escalate.
      ++report->quarantined;
      ++stats_.pages_quarantined;
      RVM_RETURN_IF_ERROR(chk.Save(env_));
      PoisonShard(shard,
                  Corruption("segment page failed checksum verification: " +
                             segment_path + " page " + std::to_string(page)));
      return OkStatus();  // contained; the report carries the outcome
    }
    RVM_RETURN_IF_ERROR(chk.Save(env_));
    if (page >= limit) {
      return OkStatus();
    }
  }
}

StatusOr<RvmInstance::ScrubReport> RvmInstance::ScrubShard(uint32_t shard_index) {
  ScrubReport report;
  if (shard_index >= shards_.size()) {
    return InvalidArgument("shard index out of range");
  }
  if (!checksums_enabled_) {
    return report;
  }
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  std::vector<std::pair<SegmentId, std::string>> segments;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (shards_[shard_index]->health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      return report;  // quarantined/repairing: skipped gracefully
    }
    // Shard 0's dictionary names every segment; striping picks this shard's.
    for (const SegmentDictEntry& entry :
         shards_[0]->log->status().segments) {
      if (entry.id % shards_.size() == shard_index) {
        segments.emplace_back(entry.id, entry.path);
      }
    }
  }
  for (const auto& [id, path] : segments) {
    RVM_RETURN_IF_ERROR(
        ScrubSegmentPages(shard_index, id, path, 0, 0, &report));
    if (report.quarantined > 0) {
      break;  // the shard just left service; nothing more to verify here
    }
  }
  RecordEvent(SpanKind::kScrub, report.mismatches, 0, report.pages_scrubbed);
  return report;
}

StatusOr<RvmInstance::ScrubReport> RvmInstance::ScrubRegion(
    const void* address) {
  ScrubReport report;
  if (!checksums_enabled_) {
    return report;
  }
  uint32_t shard_index = 0;
  SegmentId id = kInvalidSegmentId;
  std::string path;
  uint64_t first_page = 0;
  uint64_t page_end = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    RVM_ASSIGN_OR_RETURN(RegionState * region, FindRegionLocked(address, 1));
    shard_index = region->shard;
    id = region->segment_id;
    path = region->segment_path;
    first_page = region->segment_offset / page_size_;
    page_end = (region->segment_offset + region->length + page_size_ - 1) /
               page_size_;
  }
  RVM_RETURN_IF_ERROR(FailIfPoisoned());
  RVM_RETURN_IF_ERROR(
      ScrubSegmentPages(shard_index, id, path, first_page, page_end, &report));
  RecordEvent(SpanKind::kScrub, report.mismatches, 0, report.pages_scrubbed);
  return report;
}

Status RvmInstance::VerifyRegionOnMapLocked(SegmentId id,
                                            const std::string& seg_path,
                                            File& file, uint64_t segment_offset,
                                            uint64_t length, uint8_t* base) {
  LogShard& shard = ShardFor(id);
  std::lock_guard<std::mutex> log_lock(shard.log_mu);
  SegmentChecksumMap chk = SegmentChecksumMap::Load(env_, seg_path, page_size_);
  Status failure = OkStatus();
  for (uint64_t off = 0; off < length && failure.ok(); off += page_size_) {
    const uint64_t page = (segment_offset + off) / page_size_;
    if (!chk.known(page)) {
      continue;  // baselines come from truncation and scrubs, not Map
    }
    const uint64_t len = std::min(page_size_, length - off);
    ++stats_.pages_scrubbed;
    cpu_.Copy(len);
    if (Crc32(std::span<const uint8_t>(base + off, len)) == chk.crc(page)) {
      continue;
    }
    ++stats_.checksum_mismatches;
    RecordEvent(SpanKind::kChecksumMismatch, page, 0, id);
    RVM_ASSIGN_OR_RETURN(
        bool repaired,
        TryRepairPageFromLogBothLocked(shard, id, file, page, len, &chk));
    if (repaired) {
      // The file now holds the repaired image; refresh the in-memory copy
      // that Map just filled from the corrupt bytes.
      RVM_ASSIGN_OR_RETURN(
          size_t got,
          file.ReadAt(page * page_size_, std::span<uint8_t>(base + off, len)));
      (void)got;
      continue;
    }
    ++stats_.pages_quarantined;
    failure = Corruption("segment page failed checksum verification at map: " +
                         seg_path + " page " + std::to_string(page));
  }
  RVM_RETURN_IF_ERROR(chk.Save(env_));
  if (!failure.ok()) {
    PoisonShard(shard, failure);
    return failure;
  }
  return OkStatus();
}

}  // namespace rvm
