#include "src/rvm/log_device.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace rvm {
namespace {

// Free space we always keep in reserve so the area never fills completely
// (tail == head must unambiguously mean "empty") and a wrap filler always
// fits.
constexpr uint64_t kAppendSlack = 2 * kRecordHeaderSize;

constexpr uint64_t kMinLogSize = kLogDataStart + 16 * 1024;

}  // namespace

Status LogDevice::Create(Env* env, const std::string& path,
                         uint64_t total_size, bool overwrite) {
  if (total_size < kMinLogSize) {
    return InvalidArgument("log size too small (minimum 24 KB)");
  }
  if (!overwrite && env->Exists(path)) {
    return AlreadyExists("log already exists: " + path);
  }
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(file->Resize(total_size));
  // Materialize the whole log area now (no-op off the real environment) so
  // commit-path fsyncs never pay for extent allocation; see File::Preallocate.
  RVM_RETURN_IF_ERROR(file->Preallocate(total_size));

  LogStatusBlock status;
  status.generation = 1;
  status.log_size = total_size;
  status.head = kLogDataStart;
  status.tail = kLogDataStart;
  status.tail_seqno = 1;
  status.last_record_offset = 0;
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded, EncodeStatusBlock(status));
  // Write the same generation-1 content to both slots so a reader finds a
  // valid block regardless of which slot the first update lands in.
  RVM_RETURN_IF_ERROR(file->WriteAt(0, encoded));
  RVM_RETURN_IF_ERROR(file->WriteAt(kStatusBlockSize, encoded));
  return file->Sync();
}

StatusOr<std::unique_ptr<LogDevice>> LogDevice::Open(Env* env,
                                                     const std::string& path) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kReadWrite));
  // Read both status slots; take the valid one with the higher generation.
  std::vector<uint8_t> slot(kStatusBlockSize);
  StatusOr<LogStatusBlock> best = Corruption("no valid status block");
  for (uint64_t slot_offset : {uint64_t{0}, kStatusBlockSize}) {
    RVM_ASSIGN_OR_RETURN(size_t n, file->ReadAt(slot_offset, slot));
    if (n != kStatusBlockSize) {
      continue;
    }
    StatusOr<LogStatusBlock> decoded = DecodeStatusBlock(slot);
    if (decoded.ok() &&
        (!best.ok() || decoded->generation > best->generation)) {
      best = std::move(decoded);
    }
  }
  if (!best.ok()) {
    return Corruption("log has no valid status block: " + path);
  }
  RVM_ASSIGN_OR_RETURN(uint64_t file_size, file->Size());
  if (file_size < best->log_size) {
    return Corruption("log file shorter than its declared size: " + path);
  }
  return std::unique_ptr<LogDevice>(
      new LogDevice(env, path, std::move(file), std::move(*best)));
}

Status LogDevice::WriteManifest(Env* env, const std::string& path,
                                const LogManifest& manifest, bool overwrite) {
  if (!overwrite && env->Exists(path)) {
    return AlreadyExists("log already exists: " + path);
  }
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded,
                       EncodeLogManifest(manifest));
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(file->WriteAt(0, encoded));
  return file->Sync();
}

StatusOr<LogManifest> LogDevice::ReadManifest(Env* env,
                                              const std::string& path) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kReadWrite));
  std::vector<uint8_t> block(kManifestBlockSize);
  RVM_ASSIGN_OR_RETURN(size_t n, file->ReadAt(0, block));
  if (n != kManifestBlockSize) {
    return Corruption("manifest block truncated: " + path);
  }
  return DecodeLogManifest(block);
}

StatusOr<uint32_t> LogDevice::DetectShardCount(Env* env,
                                               const std::string& path) {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env->Open(path, OpenMode::kReadWrite));
  std::vector<uint8_t> head(4);
  RVM_ASSIGN_OR_RETURN(size_t n, file->ReadAt(0, head));
  if (n < 4) {
    return Corruption("log too short to classify: " + path);
  }
  uint32_t magic = 0;
  for (size_t i = 0; i < 4; ++i) {
    magic |= static_cast<uint32_t>(head[i]) << (8 * i);
  }
  if (magic == kStatusMagic) {
    return 1;
  }
  if (magic == kManifestMagic) {
    RVM_ASSIGN_OR_RETURN(LogManifest manifest, ReadManifest(env, path));
    return manifest.shard_count;
  }
  return Corruption("neither a log status block nor a shard manifest: " +
                    path);
}

void LogDevice::Poison(const Status& cause) {
  if (poisoned_.load(std::memory_order_acquire)) {
    return;  // first failure wins; keep the original cause
  }
  poison_cause_ = cause;
  poisoned_.store(true, std::memory_order_release);
  RVM_LOG_WARN("log device poisoned: %s", cause.ToString().c_str());
}

uint64_t LogDevice::used() const {
  if (status_.tail >= status_.head) {
    return status_.tail - status_.head;
  }
  return (status_.log_size - status_.head) + (status_.tail - kLogDataStart);
}

void LogDevice::NoteRetry() {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retry_.on_retry) {
    retry_.on_retry();
  }
}

uint64_t LogDevice::RetryDelayUs(uint64_t attempt) {
  uint64_t delay = retry_.backoff_us;
  for (uint64_t i = 0; i < attempt && delay < retry_.backoff_max_us; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, retry_.backoff_max_us);
  // Deterministic xorshift jitter in [delay/2, delay], so shards retrying
  // the same hiccup do not re-collide in lockstep yet tests stay replayable.
  retry_jitter_state_ ^= retry_jitter_state_ << 13;
  retry_jitter_state_ ^= retry_jitter_state_ >> 7;
  retry_jitter_state_ ^= retry_jitter_state_ << 17;
  uint64_t half = delay / 2;
  return delay - half + (half > 0 ? retry_jitter_state_ % (half + 1) : 0);
}

Status LogDevice::WriteAtRetry(uint64_t offset, std::span<const uint8_t> bytes) {
  Status status = file_->WriteAt(offset, bytes);
  if (!status.ok() && IsTransientError(status.code()) && retry_.limit > 0) {
    retrying_.store(true, std::memory_order_release);
    for (uint64_t attempt = 0; attempt < retry_.limit && !status.ok() &&
                               IsTransientError(status.code());
         ++attempt) {
      NoteRetry();
      env_->SleepMicros(RetryDelayUs(attempt));
      // The same fd is fine for a write retry: a failed pwrite makes no
      // durability promise a retry could falsify, unlike a failed fsync.
      status = file_->WriteAt(offset, bytes);
    }
    retrying_.store(false, std::memory_order_release);
  }
  if (status.ok()) {
    unsynced_writes_.emplace_back(
        offset, std::vector<uint8_t>(bytes.begin(), bytes.end()));
  }
  return status;
}

StatusOr<size_t> LogDevice::ReadFullyRetry(uint64_t offset,
                                           std::span<uint8_t> out) {
  auto transient = [&](const StatusOr<size_t>& r) {
    if (!r.ok()) {
      return IsTransientError(r.status().code());
    }
    // Callers read inside [0, log_size) of a file at least log_size long,
    // so a short read cannot be end-of-file — treat it as transient.
    return *r < out.size();
  };
  StatusOr<size_t> result = file_->ReadAt(offset, out);
  if (transient(result) && retry_.limit > 0) {
    retrying_.store(true, std::memory_order_release);
    for (uint64_t attempt = 0; attempt < retry_.limit && transient(result);
         ++attempt) {
      NoteRetry();
      env_->SleepMicros(RetryDelayUs(attempt));
      result = file_->ReadAt(offset, out);
    }
    retrying_.store(false, std::memory_order_release);
  }
  return result;
}

Status LogDevice::ReopenForSyncRetry() {
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> fresh,
                       env_->Open(path_, OpenMode::kReadWrite));
  // The failed fd's dirty pages may already have been dropped by the kernel,
  // so everything since the last successful sync is rewritten through the
  // fresh fd before it is trusted with a barrier.
  for (const auto& [offset, bytes] : unsynced_writes_) {
    RVM_RETURN_IF_ERROR(fresh->WriteAt(offset, bytes));
  }
  file_ = std::move(fresh);
  return OkStatus();
}

Status LogDevice::SyncWithReopenRetry() {
  Status status = file_->Sync();
  if (!status.ok() && IsTransientError(status.code()) && retry_.limit > 0) {
    retrying_.store(true, std::memory_order_release);
    for (uint64_t attempt = 0; attempt < retry_.limit; ++attempt) {
      NoteRetry();
      env_->SleepMicros(RetryDelayUs(attempt));
      // Never re-fsync the failed fd (see Sync()): reopen for a fresh fd,
      // replay the unsynced tail, and only then issue the barrier.
      status = ReopenForSyncRetry();
      if (status.ok()) {
        status = file_->Sync();
      }
      if (status.ok() || !IsTransientError(status.code())) {
        break;
      }
    }
    retrying_.store(false, std::memory_order_release);
  }
  if (status.ok()) {
    unsynced_writes_.clear();
  }
  return status;
}

Status LogDevice::WriteRaw(uint64_t offset, std::span<const uint8_t> bytes) {
  Status status = WriteAtRetry(offset, bytes);
  if (!status.ok()) {
    // A failed append write leaves the device in an unknown state (the
    // kernel may have written any prefix); the in-memory tail no longer
    // describes the file reliably. Fail stop.
    Poison(status);
  }
  return status;
}

StatusOr<uint64_t> LogDevice::AppendTransaction(
    TransactionId tid, std::span<const RangeView> ranges, uint8_t flags) {
  if (poisoned()) {
    return poison_status();
  }
  std::vector<uint8_t> record = EncodeTransactionRecord(
      status_.tail_seqno, tid, status_.last_record_offset, ranges, flags);

  uint64_t need = record.size();
  if (need + kAppendSlack > capacity()) {
    return LogFull("record larger than the log area");
  }
  if (free_space() < need + kAppendSlack) {
    return LogFull("log free space exhausted");
  }

  uint64_t remaining_to_end = status_.log_size - status_.tail;
  if (remaining_to_end < need) {
    // Wrap: emit a filler (if a header fits) and restart at the area start.
    if (remaining_to_end >= kRecordHeaderSize) {
      std::vector<uint8_t> filler =
          EncodeWrapFiller(status_.tail_seqno, status_.last_record_offset);
      RVM_RETURN_IF_ERROR(WriteRaw(status_.tail, filler));
      status_.last_record_offset = status_.tail;
      ++status_.tail_seqno;
      // Re-encode with the updated seqno / displacement.
      record = EncodeTransactionRecord(
          status_.tail_seqno, tid, status_.last_record_offset, ranges, flags);
    }
    status_.tail = kLogDataStart;
    if (free_space() < need + kAppendSlack) {
      return LogFull("log free space exhausted at wrap");
    }
  }

  uint64_t offset = status_.tail;
  RVM_RETURN_IF_ERROR(WriteRaw(offset, record));
  status_.last_record_offset = offset;
  status_.tail = offset + record.size();
  ++status_.tail_seqno;
  appended_lsn_.fetch_add(1, std::memory_order_release);
  return offset;
}

Status LogDevice::Sync() {
  if (poisoned()) {
    // Never retry a failed fsync on the same fd: the kernel may have
    // already discarded the dirty pages, so a "successful" retry would
    // report durability for data that never reached the device.
    return poison_status();
  }
  // The caller's log lock excludes appends, so every record counted in
  // appended_lsn_ is in the file before the barrier below.
  uint64_t target = appended_lsn_.load(std::memory_order_acquire);
  Status status = SyncWithReopenRetry();
  if (!status.ok()) {
    Poison(status);
    return status;
  }
  durable_lsn_.store(target, std::memory_order_release);
  return OkStatus();
}

Status LogDevice::WriteStatus() {
  if (poisoned()) {
    return poison_status();
  }
  if (durable_lsn() < appended_lsn()) {
    RVM_RETURN_IF_ERROR(Sync());
  }
  // Encode with the bumped generation but commit the bump only after the
  // write sticks. Bumping first would make an encode or write failure skip
  // a slot: the next successful update would then land on the same slot as
  // the last valid block, and a torn write there could roll the log status
  // back by two generations.
  LogStatusBlock next = status_;
  ++next.generation;
  RVM_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded, EncodeStatusBlock(next));
  uint64_t slot_offset = (next.generation % 2 == 0) ? 0 : kStatusBlockSize;
  Status write = WriteAtRetry(slot_offset, encoded);
  if (!write.ok()) {
    Poison(write);
    return write;
  }
  Status synced = SyncWithReopenRetry();
  if (!synced.ok()) {
    Poison(synced);
    return synced;
  }
  status_.generation = next.generation;
  return OkStatus();
}

Status LogDevice::ReadRecordAt(uint64_t offset, OwnedRecord& record) {
  record.offset = offset;
  record.bytes.resize(kRecordHeaderSize);
  RVM_ASSIGN_OR_RETURN(size_t n, ReadFullyRetry(offset, record.bytes));
  if (n != kRecordHeaderSize) {
    return Corruption("short read of record header");
  }
  RVM_ASSIGN_OR_RETURN(RecordHeader header, PeekRecordHeader(record.bytes));
  if (offset + kRecordHeaderSize + header.payload_length > status_.log_size) {
    // A garbage header can claim any payload length (up to 4 GiB); bound it
    // by the log area before trusting it, so salvage scans over random
    // bytes never attempt absurd reads.
    return Corruption("record payload extends past the end of the log");
  }
  if (header.payload_length > 0) {
    record.bytes.resize(kRecordHeaderSize + header.payload_length);
    RVM_ASSIGN_OR_RETURN(
        size_t payload_read,
        ReadFullyRetry(offset + kRecordHeaderSize,
                       std::span<uint8_t>(record.bytes)
                           .subspan(kRecordHeaderSize)));
    if (payload_read != header.payload_length) {
      return Corruption("short read of record payload");
    }
  }
  RVM_ASSIGN_OR_RETURN(record.parsed, ParseRecord(record.bytes));
  return OkStatus();
}

StatusOr<uint64_t> LogDevice::ExtendTailForward() {
  uint64_t found = 0;
  uint64_t scanned = 0;
  OwnedRecord record;
  while (scanned < capacity()) {
    if (status_.log_size - status_.tail < kRecordHeaderSize) {
      // Too little room for any record: writers wrap implicitly here.
      scanned += status_.log_size - status_.tail;
      status_.tail = kLogDataStart;
      continue;
    }
    if (!ReadRecordAt(status_.tail, record).ok()) {
      // A torn tail, or lost committed data if a later record survives.
      RVM_ASSIGN_OR_RETURN(std::vector<ScannedRecord> successors,
                           ScanForRecords(status_.tail_seqno, 1));
      if (!successors.empty()) {
        return Corruption(
            "committed log record unreadable at offset " +
            std::to_string(status_.tail) + " (seqno " +
            std::to_string(status_.tail_seqno) +
            "): a later record survives, so this is media corruption, not a "
            "torn tail; run `rvmutl <log> verify` for a salvage report");
      }
      break;  // torn or unwritten tail: the true end of the log
    }
    if (record.parsed.header.seqno != status_.tail_seqno) {
      if (record.parsed.header.seqno > status_.tail_seqno) {
        return Corruption(
            "log sequence gap at offset " + std::to_string(status_.tail) +
            ": expected seqno " + std::to_string(status_.tail_seqno) +
            ", found " + std::to_string(record.parsed.header.seqno));
      }
      break;  // stale record from a previous trip around the area
    }
    status_.last_record_offset = status_.tail;
    ++status_.tail_seqno;
    ++found;
    if (record.parsed.header.type == RecordType::kWrapFiller) {
      scanned += status_.log_size - status_.tail;
      status_.tail = kLogDataStart;
    } else {
      scanned += record.bytes.size();
      status_.tail += record.bytes.size();
    }
  }
  return found;
}

StatusOr<std::vector<ScannedRecord>> LogDevice::ScanForRecords(
    uint64_t min_seqno, size_t max_results) {
  // Stale records from earlier trips around the circular area always carry
  // sequence numbers below the current tail_seqno, so filtering on
  // min_seqno makes this scan safe to run over the whole area.
  const uint8_t magic_bytes[4] = {
      static_cast<uint8_t>(kRecordMagic & 0xff),
      static_cast<uint8_t>((kRecordMagic >> 8) & 0xff),
      static_cast<uint8_t>((kRecordMagic >> 16) & 0xff),
      static_cast<uint8_t>((kRecordMagic >> 24) & 0xff),
  };
  constexpr uint64_t kChunk = 64 * 1024;
  std::vector<uint8_t> buffer(kChunk + sizeof(magic_bytes) - 1);
  std::vector<ScannedRecord> found;
  OwnedRecord record;
  for (uint64_t chunk_start = kLogDataStart; chunk_start < status_.log_size;
       chunk_start += kChunk) {
    // Overlap reads by 3 bytes so a magic straddling a chunk boundary is
    // still seen (match starts are restricted to the first kChunk bytes, so
    // the overlap never yields a duplicate).
    const std::span<uint8_t> chunk = std::span<uint8_t>(buffer).subspan(
        0, std::min<uint64_t>(buffer.size(), status_.log_size - chunk_start));
    RVM_ASSIGN_OR_RETURN(size_t n, ReadFullyRetry(chunk_start, chunk));
    if (n != chunk.size()) {  // not the end of the area: Open checked the size
      return IoError("short read scanning the log area at offset " +
                     std::to_string(chunk_start));
    }
    for (size_t i = 0; i + sizeof(magic_bytes) <= n && i < kChunk; ++i) {
      if (buffer[i] != magic_bytes[0] || buffer[i + 1] != magic_bytes[1] ||
          buffer[i + 2] != magic_bytes[2] || buffer[i + 3] != magic_bytes[3]) {
        continue;
      }
      if (i + kRecordHeaderSize <= n) {
        // ReadRecordAt would judge these same header bytes first.
        StatusOr<RecordHeader> header =
            PeekRecordHeader(chunk.subspan(i, kRecordHeaderSize));
        if (!header.ok() || header->seqno < min_seqno) {
          continue;
        }
      }
      const uint64_t candidate = chunk_start + i;
      if (ReadRecordAt(candidate, record).ok() &&
          record.parsed.header.seqno >= min_seqno) {
        found.push_back({candidate, record.parsed.header});
        if (found.size() >= max_results) {
          return found;
        }
      }
    }
  }
  return found;
}

StatusOr<const OwnedRecord*> LogDevice::LiveRecords::Next() {
  const uint64_t offset = std::exchange(next_offset_, 0);  // errors end it
  // Live records lie in [head, tail), in circular order; 0 ends a chain.
  const LogStatusBlock& status = log_.status();
  const bool live = status.head <= status.tail
                        ? offset >= status.head && offset < status.tail
                        : offset >= status.head || offset < status.tail;
  if (!live || offset < kLogDataStart || offset >= status.log_size) {
    return nullptr;
  }
  if (budget_-- == 0) {
    return Corruption("record reverse displacement chain loops");
  }
  RVM_RETURN_IF_ERROR(log_.ReadRecordAt(offset, record_));
  if (offset != status.head) {  // the head is the oldest live record
    next_offset_ = record_.parsed.header.prev_offset;
  }
  return &record_;
}

void LogDevice::MarkEmpty() {
  status_.head = status_.tail;
  status_.last_record_offset = 0;
}

}  // namespace rvm
