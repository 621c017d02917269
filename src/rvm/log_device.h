// LogDevice: the write-ahead log as a circular record area on a File.
//
// Responsibilities: formatting a new log (create_log, §4.2), atomically
// maintaining the duplicated status block, appending records with wraparound
// handling and free-space accounting, forcing the log, and the two scans: a
// forward validity scan that finds records past the last durable tail pointer
// (probing the whole area, with retried reads, whenever the tail record is
// unreadable, as on any log not yet wrapped), and LiveRecords, the one
// backward walk over the reverse-displacement chain (Figure 5).
//
// LogDevice knows nothing about transactions or segments-in-memory; it deals
// purely in encoded records. Synchronization is the caller's job (RvmInstance
// holds its log lock around every call); the only exceptions are the two LSN
// accessors, which are atomic so group-commit followers can poll durability
// without the lock.
//
// Append and sync are deliberately separate phases with an explicit durable
// point: every successful AppendTransaction advances appended_lsn(), and a
// Sync() raises durable_lsn() to the appended LSN it observed on entry. A
// commit is durable exactly when durable_lsn() has reached the LSN its
// append produced — the handshake the group-commit stage in RvmInstance is
// built on.
#ifndef RVM_RVM_LOG_DEVICE_H_
#define RVM_RVM_LOG_DEVICE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/os/file.h"
#include "src/rvm/log_format.h"
#include "src/util/status.h"

namespace rvm {

// A fully read record: owns its bytes; `parsed` views point into `bytes`.
struct OwnedRecord {
  uint64_t offset = 0;  // absolute log offset of the record header
  std::vector<uint8_t> bytes;
  ParsedRecord parsed;
};

// A valid record found by LogDevice::ScanForRecords.
struct ScannedRecord {
  uint64_t offset = 0;
  RecordHeader header;
};

class LogDevice {
 public:
  // Formats a fresh log of `total_size` bytes at `path`. Fails with
  // kAlreadyExists unless `overwrite`. total_size must leave a usable record
  // area after the two status blocks.
  static Status Create(Env* env, const std::string& path, uint64_t total_size,
                       bool overwrite);

  // Opens an existing log, reading the newest valid status block copy.
  static StatusOr<std::unique_ptr<LogDevice>> Open(Env* env,
                                                   const std::string& path);

  // Multi-shard manifest helpers (DESIGN.md §12). WriteManifest formats the
  // manifest block at `path` (the shard logs themselves are created
  // separately at ShardLogPath(path, k)); ReadManifest validates and decodes
  // it. DetectShardCount classifies the first block at `path`: 1 for an
  // ordinary single log (status magic), the manifest's shard count for a
  // shard set, kCorruption for anything else.
  static Status WriteManifest(Env* env, const std::string& path,
                              const LogManifest& manifest, bool overwrite);
  static StatusOr<LogManifest> ReadManifest(Env* env, const std::string& path);
  static StatusOr<uint32_t> DetectShardCount(Env* env, const std::string& path);

  // In-memory status. Mutations (segment dictionary, head moves) take effect
  // on disk only at the next WriteStatus().
  LogStatusBlock& status() { return status_; }
  const LogStatusBlock& status() const { return status_; }

  uint64_t capacity() const { return status_.log_size - kLogDataStart; }
  uint64_t used() const;
  uint64_t free_space() const { return capacity() - used(); }

  // Appends a transaction record, writing a wrap filler first if the record
  // does not fit before the end of the area. Assigns the sequence number and
  // reverse displacement. Buffered: call Sync() to force. Returns the
  // record's log offset, or kLogFull if there is not enough free space (the
  // caller should truncate and retry). `flags` is stored verbatim in the
  // record header (the kRecordFlagShard* bits for cross-shard 2PC records).
  StatusOr<uint64_t> AppendTransaction(TransactionId tid,
                                       std::span<const RangeView> ranges,
                                       uint8_t flags = 0);

  // Forces all appended records to disk and advances durable_lsn() to the
  // appended LSN observed on entry.
  //
  // A Sync failure poisons the device: after a failed fsync the page-cache
  // state of the fd is unknown (on Linux before 4.13 the dirty pages are
  // simply dropped and a retried fsync reports success without having
  // written anything — "fsyncgate"), so a retry can never be trusted.
  // Subsequent Sync calls fail fast with the original status and never
  // reach the file again.
  Status Sync();

  // The sequence point assigned to the most recent successful append, and
  // the highest sequence point known durable. Monotonic; readable without
  // the caller's log lock.
  uint64_t appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  // Writes the in-memory status block to the alternate slot and syncs. No
  // status block may name a tail whose records are not durable (recovery
  // walks the chain from status().last_record_offset), so if appends are
  // outstanding this forces them first.
  Status WriteStatus();

  // Reads and validates the record at `offset` into `record`, reusing it.
  Status ReadRecordAt(uint64_t offset, OwnedRecord& record);

  // Forward validity scan from the in-memory tail: extends tail, tail_seqno
  // and last_record_offset past any records that were forced after the
  // status block was last written. Used once, at recovery. Returns the
  // number of records discovered.
  //
  // Distinguishes a torn tail from mid-log corruption: when the record at
  // the expected position is unreadable, the whole record area is scanned
  // for a valid record carrying the expected (or a later) sequence number.
  // Because writes persist in order, such a successor proves the unreadable
  // record was once durable — that is media corruption of committed data,
  // surfaced as kCorruption instead of silently truncating committed
  // transactions. With no successor the unreadable bytes are a torn final
  // append (expected after a crash) and the scan stops cleanly.
  StatusOr<uint64_t> ExtendTailForward();

  // Scans the entire record area for valid records whose seqno is at least
  // `min_seqno`, regardless of the status block's head/tail. Returns each
  // hit's offset and header (at most `max_results`), in ascending offset
  // order. Used by ExtendTailForward's corruption probe and by `rvmutl LOG
  // verify` to build a salvage report.
  StatusOr<std::vector<ScannedRecord>> ScanForRecords(uint64_t min_seqno,
                                                      size_t max_results);

  // The newest-first walk over the live log along the reverse-displacement
  // chain (Figure 5), and the only reader of prev_offset: from the newest
  // record through the one at the head, wrap fillers included, then nullptr.
  // Records share one buffer, valid until the next Next(). A read error, or
  // kCorruption for a looping chain, ends the walk. The log must not change.
  class LiveRecords {
   public:
    explicit LiveRecords(LogDevice& log) : log_(log) {}
    StatusOr<const OwnedRecord*> Next();

   private:
    LogDevice& log_;
    uint64_t next_offset_ = log_.status().last_record_offset;  // 0: over
    uint64_t budget_ = log_.capacity() / kRecordHeaderSize + 1;  // loop guard
    OwnedRecord record_;
  };

  // Declares the log empty at the current tail position (after truncation or
  // recovery has applied everything): head = tail, chain restarts.
  void MarkEmpty();

  // Statistics for benchmarks and Table 2.
  uint64_t syncs() const { return syncs_; }

  // Transient-error retry (DESIGN.md §13). Failures carrying kUnavailable
  // (the EINTR/EAGAIN class) and short reads inside the log area are
  // retried up to `limit` times with exponential backoff and deterministic
  // jitter, slept via Env::SleepMicros (a no-op off the real environment).
  // A sync retry never reuses the failed fd: the file is reopened and every
  // write since the last successful sync replayed first, because the failed
  // fd's dirty pages may already have been dropped (fsyncgate). `on_retry`
  // (if set) fires once per retry attempt, from the retrying thread.
  struct RetryPolicy {
    uint64_t limit = 3;
    uint64_t backoff_us = 100;
    uint64_t backoff_max_us = 10'000;
    std::function<void()> on_retry;
  };
  void set_retry_policy(RetryPolicy policy) { retry_ = std::move(policy); }
  const RetryPolicy& retry_policy() const { return retry_; }
  // Retry attempts over the device's lifetime; readable without the log lock.
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  // True while a retry loop is in flight (health reporting).
  bool retrying() const { return retrying_.load(std::memory_order_acquire); }

  const std::string& path() const { return path_; }

  // Fail-stop containment. A device is poisoned by the first non-transient
  // failure of an append write, a force, or a status write (kLogFull is
  // transient and never poisons). Once poisoned, every mutating entry point
  // fails fast with the original cause and no further I/O — in particular
  // no further fsync — reaches the file. `poisoned()` is readable without
  // the caller's log lock; `poison_status()` is valid once poisoned() is
  // true (release/acquire pairing on poisoned_).
  void Poison(const Status& cause);
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }
  const Status& poison_status() const { return poison_cause_; }

 private:
  LogDevice(Env* env, std::string path, std::unique_ptr<File> file,
            LogStatusBlock status)
      : env_(env),
        path_(std::move(path)),
        file_(std::move(file)),
        status_(std::move(status)) {}

  Status WriteRaw(uint64_t offset, std::span<const uint8_t> bytes);
  // file_->WriteAt with the transient-retry loop (same fd: a failed write
  // leaves no kernel state a retry cannot observe). Successful writes are
  // remembered in unsynced_writes_ for sync-retry replay.
  Status WriteAtRetry(uint64_t offset, std::span<const uint8_t> bytes);
  // file_->ReadAt that treats a short read inside the log area as transient
  // (the file is never shorter than log_size, so EOF cannot explain it) and
  // retries alongside kUnavailable errors.
  StatusOr<size_t> ReadFullyRetry(uint64_t offset, std::span<uint8_t> out);
  // file_->Sync with the reopen-and-replay retry described above. Does not
  // bump syncs_ or poison; callers own both.
  Status SyncWithReopenRetry();
  // Opens a fresh fd at path_ and replays unsynced_writes_ onto it.
  Status ReopenForSyncRetry();
  uint64_t RetryDelayUs(uint64_t attempt);
  void NoteRetry();

  Env* env_;
  std::string path_;
  std::unique_ptr<File> file_;
  LogStatusBlock status_;
  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<uint64_t> durable_lsn_{0};
  uint64_t syncs_ = 0;
  RetryPolicy retry_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<bool> retrying_{false};
  uint64_t retry_jitter_state_ = 0x9e3779b97f4a7c15ull;
  // Every successful write since the last successful Sync, in order, for
  // sync-retry replay onto a fresh fd. Cleared when a Sync lands; bounded by
  // the bytes one force covers (a group batch plus a status slot).
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> unsynced_writes_;
  std::atomic<bool> poisoned_{false};
  Status poison_cause_;  // written once, before the release store above
};

}  // namespace rvm

#endif  // RVM_RVM_LOG_DEVICE_H_
