// Crash recovery, epoch truncation (Fig. 6), and incremental truncation
// (Fig. 7), per shard.
//
// Recovery and epoch truncation share one core, ApplyLogToSegmentsBothLocked:
// walk one shard's live log newest-record-first via the reverse-displacement
// chain, and for each modification range apply only the bytes not already
// covered by a newer record ("an in-memory tree of the latest committed
// changes", §5.1.2). Idempotency comes from deferring the status-block update
// that declares the log empty until after every segment write is durable: a
// crash anywhere in between simply reruns the whole procedure. Because a
// segment is striped to exactly one shard, shards replay disjoint segment
// sets and recovery can run them in parallel (DESIGN.md §12).
//
// Cross-shard transactions add one filter: a record carrying the 2PC prepare
// flag applies only if its transaction is decided — during recovery, decided
// means a decision or commit-marker record for the same tid exists in some
// shard's live log (collected in a first pass); during live truncation it
// means the tid is not in aborted_gtids_. Presumed abort: no decision
// anywhere, no effect anywhere.
//
// Lock structure: the `BothLocked` bodies here require state_mu_ and the
// shard's log_mu — truncation reads log records, rewrites the status block,
// and mutates the page vector, so it must exclude both appenders (log_mu)
// and forward processing (state_mu_). The `Locked` wrappers take the shard's
// log_mu around the body, which also fences truncation against an in-flight
// group-commit force on that shard: a leader holds log_mu for its Sync, so
// truncation either sees the whole batch durable or runs before the force
// (and its own Sync covers it).
#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

#include "src/rvm/rvm.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"

namespace rvm {

Status RvmInstance::ApplyLogToSegmentsBothLocked(
    LogShard& shard, StatCounter* records_applied, StatCounter* bytes_applied,
    LatencyHistogram* apply_us, const std::set<TransactionId>* decided,
    std::map<SegmentId, std::unique_ptr<File>>& files) {
  // One backward pass over the reverse-displacement chain, newest record
  // first ("reading the log from tail to head", §5.1.2). Latest committed
  // value wins: track covered bytes per segment, applying only uncovered
  // pieces of older records.
  std::map<SegmentId, IntervalSet> covered;
  // File-absolute byte ranges actually written per segment, for the
  // checksum-map refresh below (DESIGN.md §14).
  std::map<SegmentId, IntervalSet> written;
  std::set<File*> touched;
  LogDevice::LiveRecords walk(*shard.log);
  for (;;) {
    StatusOr<const OwnedRecord*> next = walk.Next();
    if (!next.ok()) {
      // Damage inside the live range is media corruption, never a torn
      // tail: fail stop this shard; the head must not pass unapplied data.
      PoisonShard(shard, next.status());
      return next.status();
    }
    if (*next == nullptr) {
      break;
    }
    const ParsedRecord& record = (*next)->parsed;
    if (record.header.type == RecordType::kWrapFiller) {
      continue;
    }
    if (record.header.flags & kRecordFlagShardPrepare) {
      // 2PC prepare: apply only if the transaction is decided. With no
      // decided set (live truncation) every in-log prepare is decided
      // unless the instance aborted it — 2PC runs to a verdict before the
      // commit call returns, and recovery discards undecided prepares
      // before any live processing starts.
      const bool committed = decided != nullptr
                                 ? decided->contains(record.header.tid)
                                 : !aborted_gtids_.contains(record.header.tid);
      if (!committed) {
        continue;
      }
    }
    cpu_.Fixed(cpu_.model().truncation_record_us);
    ++*records_applied;
    const uint64_t record_start_us = env_->NowMicros();
    for (const RangeView& range : record.ranges) {
      IntervalSet& seg_covered = covered[range.segment];
      uint64_t range_end = range.offset + range.data.size();
      for (const Interval& piece : seg_covered.Uncovered(range.offset, range_end)) {
        if (!files.contains(range.segment)) {
          RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                               OpenSegmentBothLocked(shard, range.segment));
          files[range.segment] = std::move(file);
        }
        File* file = files[range.segment].get();
        RVM_RETURN_IF_ERROR(file->WriteAt(
            piece.start,
            range.data.subspan(piece.start - range.offset, piece.length())));
        touched.insert(file);
        written[range.segment].Add(piece.start, piece.start + piece.length());
        *bytes_applied += piece.length();
        cpu_.Copy(piece.length());
      }
      seg_covered.Add(range.offset, range_end);
    }
    apply_us->Record(env_->NowMicros() - record_start_us);
  }
  for (File* file : touched) {
    Status synced = file->Sync();
    if (!synced.ok()) {
      // A segment WriteAt failure above is transient (the head has not
      // moved, so log replay regenerates the segment), but a failed segment
      // fsync must not be retried on the same fd (fsyncgate): fail stop.
      // Segments are striped to exactly this shard, so the quarantine is
      // contained.
      PoisonShard(shard, synced);
      return synced;
    }
  }
  // Refresh the checksum sidecars AFTER the segment syncs and BEFORE the
  // caller advances the log head: any page whose sidecar entry a crash
  // leaves stale is still covered by live records and is re-written and
  // re-checksummed when recovery reruns this procedure (DESIGN.md §14).
  for (auto& [segment, intervals] : written) {
    Status refreshed = RefreshPageChecksumsBothLocked(
        shard, segment, *files[segment], intervals.ToVector());
    if (!refreshed.ok()) {
      PoisonShard(shard, refreshed);
      return refreshed;
    }
  }
  return OkStatus();
}

Status RvmInstance::CollectShardTidSetsBothLocked(
    LogShard& shard, std::set<TransactionId>* prepared,
    std::set<TransactionId>* decided) {
  LogDevice::LiveRecords walk(*shard.log);
  for (;;) {
    StatusOr<const OwnedRecord*> next = walk.Next();
    if (!next.ok()) {
      PoisonShard(shard, next.status());
      return next.status();
    }
    if (*next == nullptr) {
      return OkStatus();
    }
    const RecordHeader& header = (*next)->parsed.header;
    if (header.flags & kRecordFlagShardPrepare) {
      prepared->insert(header.tid);
    }
    if (header.flags & (kRecordFlagShardDecision | kRecordFlagShardCommit)) {
      decided->insert(header.tid);
    }
  }
}

Status RvmInstance::RecoverShardBothLocked(
    LogShard& shard, const std::set<TransactionId>* decided,
    std::map<SegmentId, std::unique_ptr<File>>& files, uint64_t* phase_us) {
  StatCounter records;
  Status applied = ApplyLogToSegmentsBothLocked(
      shard, &records, &stats_.recovery_bytes_applied,
      &stats_.recovery_apply_us, decided, files);
  stats_.recovery_records_applied += records;
  if (applied.ok()) {
    *phase_us =
        RecordPhase(SpanKind::kRecoveryApply, shard.index, *phase_us, records);
  }
  return applied;
}

Status RvmInstance::RecoverLocked() {
  // Phase 1, every shard: find the true end of the log. Records forced after
  // the last status-block write are discovered by forward validity scanning
  // (§5.1.2's "reading the log from tail to head" starts from this recovered
  // tail). Multi-shard instances rely on this heavily — the group leader
  // defers status writes, so a whole batch tail may sit past the block.
  //
  // Each recovery record starts where the previous one ended, so the whole
  // procedure costs one clock read per record plus this one (and one more
  // on a multi-shard log, before phase 4).
  uint64_t phase_us = RingNow();
  uint64_t discovered = 0;
  std::vector<LogShard*> live;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    RVM_ASSIGN_OR_RETURN(uint64_t found, shard->log->ExtendTailForward());
    discovered += found;
    phase_us =
        RecordPhase(SpanKind::kRecoveryScan, shard->index, phase_us, found);
    if (shard->log->used() > 0) {
      live.push_back(shard.get());
    }
  }
  if (live.empty()) {
    return OkStatus();
  }

  // Phase 2 (multi-shard only): union the decided transaction ids across all
  // live shards, so phase 4 can apply prepares whose decision landed on a
  // different shard and discard the undecided rest (presumed abort).
  std::set<TransactionId> decided;
  std::vector<std::set<TransactionId>> prepared(live.size());
  std::vector<std::set<TransactionId>> local_decided(live.size());
  if (shards_.size() > 1) {
    for (size_t i = 0; i < live.size(); ++i) {
      std::lock_guard<std::mutex> log_lock(live[i]->log_mu);
      RVM_RETURN_IF_ERROR(CollectShardTidSetsBothLocked(
          *live[i], &prepared[i], &local_decided[i]));
      decided.insert(local_decided[i].begin(), local_decided[i].end());
    }
  }
  const std::set<TransactionId>* decided_ptr =
      shards_.size() > 1 ? &decided : nullptr;

  // Phase 3 (multi-shard only): make every live shard's decision evidence
  // local before anything is emptied. A shard can carry a prepare whose
  // decision record lives only on another shard (the live protocol's
  // markers are unforced and may not have survived the crash); if recovery
  // emptied that other shard and then crashed, a rerun would see the
  // prepare as undecided and presume abort for a committed transaction.
  // Appending the missing markers — durably — before phase 5 empties any
  // log closes that window: whatever subset of shards a crash leaves live,
  // each one's own log names every decided transaction it participates in.
  if (shards_.size() > 1) {
    for (size_t i = 0; i < live.size(); ++i) {
      std::lock_guard<std::mutex> log_lock(live[i]->log_mu);
      bool patched = false;
      for (TransactionId tid : prepared[i]) {
        if (decided.contains(tid) && !local_decided[i].contains(tid)) {
          RVM_RETURN_IF_ERROR(
              live[i]->log->AppendTransaction(tid, {}, kRecordFlagShardCommit)
                  .status());
          patched = true;
        }
      }
      if (patched) {
        Status synced = live[i]->log->Sync();
        if (!synced.ok()) {
          PoisonShard(*live[i], synced);
          return synced;
        }
      }
    }
  }

  // Phase 4: replay each live shard (apply only — no log is emptied until
  // every apply is durable, so a crash mid-phase reruns recovery with the
  // full decided set still derivable). Shards own disjoint segment sets
  // (static striping), so replays are independent and run in parallel, one
  // thread per live shard, when there is real parallelism to gain. The
  // simulated environments stay sequential: their clocks and crash hooks
  // assume a single caller thread.
  if (shards_.size() > 1) {
    phase_us = RingNow();  // phases 2-3 belong to no one shard's record
  }
  if (live.size() > 1 && env_ == GetRealEnv()) {
    std::vector<std::map<SegmentId, std::unique_ptr<File>>> caches(live.size());
    std::vector<Status> results(live.size(), OkStatus());
    std::vector<std::thread> threads;
    threads.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      threads.emplace_back([this, shard = live[i], decided_ptr, &caches,
                            &results, i, apply_start_us = phase_us]() mutable {
        std::lock_guard<std::mutex> log_lock(shard->log_mu);
        results[i] = RecoverShardBothLocked(*shard, decided_ptr, caches[i],
                                            &apply_start_us);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (auto& cache : caches) {
      // Keys never collide across caches: each segment belongs to exactly
      // one shard.
      for (auto& [id, file] : cache) {
        segment_files_.try_emplace(id, std::move(file));
      }
    }
    for (const Status& result : results) {
      RVM_RETURN_IF_ERROR(result);
    }
  } else {
    for (LogShard* shard : live) {
      std::lock_guard<std::mutex> log_lock(shard->log_mu);
      RVM_RETURN_IF_ERROR(RecoverShardBothLocked(*shard, decided_ptr,
                                                 segment_files_, &phase_us));
    }
  }

  // Phase 5: only now, with every shard's changes durably in the segments,
  // declare the logs empty. A crash that leaves some shards emptied and
  // some live is safe: the live ones re-apply bytes the segments already
  // hold (phase 3 made their decision evidence local, so the rerun applies
  // the same record subset).
  for (LogShard* shard : live) {
    std::lock_guard<std::mutex> log_lock(shard->log_mu);
    shard->log->MarkEmpty();
    Status status_write = shard->log->WriteStatus();
    if (!status_write.ok()) {
      PoisonShard(*shard, status_write);
      return status_write;
    }
  }

  const uint64_t records = stats_.recovery_records_applied;
  const uint64_t bytes = stats_.recovery_bytes_applied;
  RVM_LOG_INFO(
      "recovery replayed %llu records (%llu bytes) to segments across %llu "
      "shard(s); %llu records found past the last durable tails",
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(live.size()),
      static_cast<unsigned long long>(discovered));
  return OkStatus();
}

Status RvmInstance::ArchiveLiveLogBothLocked(LogShard& shard) {
  // The archive is itself a formatted log whose records are the live
  // records, oldest first — rvmutl reads it like any other log. The walk is
  // newest-first, so it collects offsets to read back in archive order.
  std::vector<uint64_t> offsets;
  LogDevice::LiveRecords walk(*shard.log);
  for (;;) {
    RVM_ASSIGN_OR_RETURN(const OwnedRecord* record, walk.Next());
    if (record == nullptr) {
      break;
    }
    if (record->parsed.header.type != RecordType::kWrapFiller) {
      offsets.push_back(record->offset);
    }
  }
  if (offsets.empty()) {
    return OkStatus();
  }
  std::string path = runtime_.log_archive_prefix;
  if (shards_.size() > 1) {
    // Per-shard archive streams: "<prefix>shard<K>.<generation>".
    path += "shard" + std::to_string(shard.index) + ".";
  }
  path += std::to_string(shard.log->status().generation);
  uint64_t size = std::max<uint64_t>(shard.log->status().log_size,
                                     kLogDataStart + 16 * 1024);
  RVM_RETURN_IF_ERROR(LogDevice::Create(env_, path, size, /*overwrite=*/true));
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<LogDevice> archive,
                       LogDevice::Open(env_, path));
  archive->status().segments = shard.log->status().segments;
  archive->status().next_segment_id = shard.log->status().next_segment_id;
  OwnedRecord record;
  for (auto offset = offsets.rbegin(); offset != offsets.rend(); ++offset) {
    RVM_RETURN_IF_ERROR(shard.log->ReadRecordAt(*offset, record));
    RVM_RETURN_IF_ERROR(archive
                            ->AppendTransaction(record.parsed.header.tid,
                                                record.parsed.ranges,
                                                record.parsed.header.flags)
                            .status());
  }
  RVM_RETURN_IF_ERROR(archive->Sync());
  return archive->WriteStatus();
}

Status RvmInstance::ForceSiblingEvidenceLocked(LogShard& shard) {
  if (!shard.holds_decisions) {
    return OkStatus();
  }
  // This shard's log names committed cross-shard transactions whose
  // participants may hold their prepare + commit marker only in volatile
  // log tails (markers are appended unforced). Force them durable before
  // this log — the decision evidence — is discarded, or a crash would make
  // recovery presume abort for a transaction this truncation has already
  // applied to segments.
  for (const auto& other : shards_) {
    if (other->index == shard.index) {
      continue;
    }
    std::lock_guard<std::mutex> log_lock(other->log_mu);
    Status synced = other->log->Sync();
    if (!synced.ok()) {
      PoisonShard(*other, synced);
      return synced;
    }
  }
  return OkStatus();
}

Status RvmInstance::TruncateEpochLocked(LogShard& shard) {
  RVM_RETURN_IF_ERROR(ForceSiblingEvidenceLocked(shard));
  {
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    RVM_RETURN_IF_ERROR(TruncateEpochBothLocked(shard));
  }
  // The epoch's Sync/WriteStatus advanced the durable LSN; wake any
  // group-stage waiters whose leader has not run yet.
  NotifyDurableWaiters(shard);
  return OkStatus();
}

Status RvmInstance::TruncateAllEpochLocked() {
  for (const auto& shard : shards_) {
    if (shard->health.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(ShardHealth::kOk)) {
      continue;  // quarantined: no maintenance I/O until repaired
    }
    RVM_RETURN_IF_ERROR(TruncateEpochLocked(*shard));
  }
  return OkStatus();
}

Status RvmInstance::TruncateEpochBothLocked(LogShard& shard) {
  // Everything the epoch applies must be durable in the log first, so a
  // crash mid-truncation can re-derive the same segment contents.
  const uint64_t sync_start_us = env_->NowMicros();
  Status synced = shard.log->Sync();
  if (!synced.ok()) {
    PoisonShard(shard, synced);  // the device poisoned itself; contain it
    return synced;
  }
  const uint64_t sync_us = env_->NowMicros() - sync_start_us;
  stats_.log_force_us.Record(sync_us);
  RecordForce(shard, sync_start_us, sync_us, nullptr);
  if (shard.log->used() == 0) {
    return OkStatus();
  }
  if (!runtime_.log_archive_prefix.empty()) {
    RVM_RETURN_IF_ERROR(ArchiveLiveLogBothLocked(shard));
  }
  ++stats_.truncations_started;
  // The pass starts where the force above ended: no extra clock read.
  const uint64_t truncation_start_us = sync_start_us + sync_us;
  RVM_RETURN_IF_ERROR(ApplyLogToSegmentsBothLocked(
      shard, &stats_.truncation_records_applied,
      &stats_.truncation_bytes_applied, &stats_.truncation_step_us,
      /*decided=*/nullptr, segment_files_));
  shard.log->MarkEmpty();
  shard.holds_decisions = false;
  Status status_write = shard.log->WriteStatus();
  if (!status_write.ok()) {
    PoisonShard(shard, status_write);
    return status_write;
  }
  // All committed changes on this shard are in the segments: none of its
  // regions' pages are dirty with respect to the log anymore.
  // Unflushed/uncommitted reference counts are unaffected (those changes are
  // not in the log). Other shards' queues and pages are untouched.
  shard.page_queue.clear();
  for (auto& [base, region] : regions_) {
    if (region->shard == shard.index) {
      region->pages.ClearDirtyAndQueued();
    }
  }
  shard.truncations.fetch_add(1, std::memory_order_relaxed);
  {
    // Completion cluster: the in-flight window derivation (started minus
    // completed) and the epoch count move together under the seqlock so a
    // Snapshot() cannot see a completed truncation that is not yet epoch-
    // attributed.
    MultiFieldUpdate seqlock(stats_);
    ++stats_.truncations_completed;
    ++stats_.epoch_truncations;
  }
  RecordPhase(SpanKind::kTruncation, shard.index, truncation_start_us,
              /*arg=*/0);
  return OkStatus();
}

Status RvmInstance::MaybeTruncateLocked() {
  if (!AnyNeedsTruncationLocked()) {
    return OkStatus();
  }
  if (truncation_mode_ == TruncationMode::kBackground) {
    // Hand the work to the truncation thread. If it falls behind and a log
    // actually fills, the append path still truncates inline as a last
    // resort.
    truncation_cv_.notify_one();
    return OkStatus();
  }
  for (const auto& shard : shards_) {
    if (!NeedsTruncationLocked(*shard) ||
        shard->health.load(std::memory_order_acquire) !=
            static_cast<uint32_t>(ShardHealth::kOk)) {
      continue;
    }
    RVM_RETURN_IF_ERROR(runtime_.use_incremental_truncation
                            ? IncrementalTruncateLocked(*shard)
                            : TruncateEpochLocked(*shard));
  }
  return OkStatus();
}

Status RvmInstance::IncrementalTruncateLocked(LogShard& shard) {
  bool epoch_fallback = false;
  {
    std::unique_lock<std::mutex> log_lock(shard.log_mu);
    RVM_RETURN_IF_ERROR(
        IncrementalTruncateBothLocked(shard, log_lock, &epoch_fallback));
  }
  if (epoch_fallback) {
    // The head page is write-blocked and space is critical: revert to epoch
    // truncation (§5.1.2), re-entering through the wrapper so the lock is
    // not held recursively.
    return TruncateEpochLocked(shard);
  }
  NotifyDurableWaiters(shard);
  return OkStatus();
}

Status RvmInstance::IncrementalTruncateBothLocked(
    LogShard& shard, std::unique_lock<std::mutex>& log_lock,
    bool* epoch_fallback) {
  *epoch_fallback = false;
  const uint64_t target = static_cast<uint64_t>(
      runtime_.truncation_target * static_cast<double>(shard.log->capacity()));
  const uint64_t critical = static_cast<uint64_t>(
      runtime_.epoch_critical_fraction *
      static_cast<double>(shard.log->capacity()));

  std::set<File*> touched;
  std::map<SegmentId, IntervalSet> written;
  bool advanced = false;
  uint64_t steps = 0;
  uint64_t truncation_start_us = 0;
  while (shard.log->used() > target && !shard.page_queue.empty() &&
         steps < runtime_.incremental_max_steps) {
    const QueuedPage& front = shard.page_queue.front();
    PageEntry& entry = front.region->pages.entry(front.page);
    if (!entry.dirty || !entry.in_queue) {
      shard.page_queue.pop_front();  // stale descriptor (cleared by an epoch)
      continue;
    }
    if (entry.write_blocked()) {
      // The head page still has uncommitted or unflushed changes. If log
      // space is critical, the caller reverts to epoch truncation (§5.1.2);
      // otherwise retry on a later trigger.
      if (shard.log->used() > critical) {
        *epoch_fallback = true;
      }
      break;
    }
    // Write the page directly from VM to the external data segment (Fig. 7).
    RegionState* region = front.region;
    uint64_t page_start = front.page * page_size_;
    uint64_t page_len = std::min(page_size_, region->length - page_start);
    if (!segment_files_.contains(region->segment_id)) {
      RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           OpenSegmentBothLocked(shard, region->segment_id));
      segment_files_[region->segment_id] = std::move(file);
    }
    File* file = segment_files_[region->segment_id].get();
    const uint64_t step_start_us = env_->NowMicros();
    if (!advanced) {
      ++stats_.truncations_started;
      truncation_start_us = step_start_us;
    }
    RVM_RETURN_IF_ERROR(
        file->WriteAt(region->segment_offset + page_start,
                      std::span<const uint8_t>(region->base + page_start, page_len)));
    touched.insert(file);
    written[region->segment_id].Add(region->segment_offset + page_start,
                                    region->segment_offset + page_start + page_len);
    cpu_.Copy(page_len);
    entry.dirty = false;
    entry.in_queue = false;
    const uint64_t step_end_us = env_->NowMicros();
    stats_.truncation_step_us.Record(step_end_us - step_start_us);
    RecordEventAt(step_end_us, SpanKind::kTruncationStep, front.page,
                  shard.index);
    shard.page_queue.pop_front();
    ++stats_.incremental_steps;
    ++stats_.incremental_pages_written;
    ++steps;
    advanced = true;
  }

  if (!advanced) {
    return OkStatus();
  }
  // Segment writes must be durable before the head moves past the records
  // they supersede, and the head move must be durable before new appends
  // reuse the reclaimed space (appends happen only after we return, under
  // the same lock discipline).
  for (File* file : touched) {
    Status synced = file->Sync();
    if (!synced.ok()) {
      // Same policy as the epoch pass: a failed segment fsync is never
      // retried on the same fd, and the head has not moved, so fail stop
      // this shard without losing anything the log cannot regenerate.
      PoisonShard(shard, synced);
      return synced;
    }
  }
  // Checksum sidecars after the segment syncs, before the head move — the
  // same ordering ApplyLogToSegmentsBothLocked uses (DESIGN.md §14).
  for (auto& [segment, intervals] : written) {
    Status refreshed = RefreshPageChecksumsBothLocked(
        shard, segment, *segment_files_[segment], intervals.ToVector());
    if (!refreshed.ok()) {
      PoisonShard(shard, refreshed);
      return refreshed;
    }
  }
  // The head move (or empty) durably discards records, possibly including
  // cross-shard decision records; sibling evidence must be durable first.
  // Forced without this shard's log_mu; state_mu_ keeps appends out.
  log_lock.unlock();
  RVM_RETURN_IF_ERROR(ForceSiblingEvidenceLocked(shard));
  log_lock.lock();
  if (shard.page_queue.empty()) {
    shard.log->MarkEmpty();
    shard.holds_decisions = false;
  } else {
    shard.log->status().head = shard.page_queue.front().log_offset;
  }
  Status status_write = shard.log->WriteStatus();
  if (!status_write.ok()) {
    PoisonShard(shard, status_write);
    return status_write;
  }
  shard.truncations.fetch_add(1, std::memory_order_relaxed);
  ++stats_.truncations_completed;
  RecordPhase(SpanKind::kTruncation, shard.index, truncation_start_us,
              /*arg=*/1);
  return status_write;
}

// ---------------------------------------------------------------------------
// Online shard repair (DESIGN.md §13)
// ---------------------------------------------------------------------------

Status RvmInstance::RepairShardLocked(uint32_t index) {
  // Re-runs the five-phase recovery procedure for ONE quarantined shard
  // against a healed (fault cleared) or replaced "<log_path>.shard<K>" file
  // while the instance stays live: fresh device open, forward tail scan,
  // 2PC decision union with the live sibling logs, newest-record-wins apply
  // to this shard's segments, then reload the shard's mapped regions from
  // their now-current segments, re-apply its spooled no-flush commits to
  // memory, and re-attach. Replacing the file with a freshly created empty
  // log is supported but lossy: records since the shard's last truncation
  // are gone and its regions come back at segment (last-truncated) state.
  if (index >= shards_.size()) {
    return InvalidArgument("shard index out of range");
  }
  LogShard& shard = *shards_[index];
  if (shard.health.load(std::memory_order_acquire) !=
      static_cast<uint32_t>(ShardHealth::kQuarantined)) {
    return FailedPrecondition("shard is not quarantined");
  }
  // §4.1 discipline, like Unmap: the reload below rewrites the regions'
  // images, which must not race an open transaction's old-value captures.
  for (const auto& [base, region] : regions_) {
    if (region->shard == index && region->active_transactions > 0) {
      return FailedPrecondition(
          "region on this shard has uncommitted transactions");
    }
  }
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    shard.health.store(static_cast<uint32_t>(ShardHealth::kRepairing),
                       std::memory_order_release);
  }
  ++stats_.shard_repairs_started;
  // The repair's recovery records chain from this event's timestamp.
  uint64_t phase_us = RingNow();
  RecordEventAt(phase_us, SpanKind::kShardRepair, 0, index);

  Status result = [&]() -> Status {
    // Lock order: this shard's log_mu is never held while a sibling's is
    // taken (Introspect takes them all in ascending order), so the phases
    // below take it in three separate sections. Nothing else can reach the
    // shard in between: state_mu_ is held throughout and the shard is
    // kRepairing, which every commit path refuses.
    //
    // Phase 0: a fresh device on the healed file — never the poisoned fd
    // (fsyncgate: its page-cache state is unknown). The old device is
    // dropped on the swap; everything below runs on clean state.
    RVM_ASSIGN_OR_RETURN(std::unique_ptr<LogDevice> healed,
                         LogDevice::Open(env_, shard.path));
    healed->set_retry_policy(RetryPolicyFromRuntime());
    // The shard's own dictionary mirror may lag (quarantine skipped the
    // lockstep status writes) or be empty (replaced file); shard 0's is the
    // allocation source of truth and is only mutated under state_mu_, which
    // we hold.
    healed->status().segments = shards_[0]->log->status().segments;
    healed->status().next_segment_id =
        shards_[0]->log->status().next_segment_id;
    std::set<TransactionId> decided;
    bool has_records = false;
    {
      std::lock_guard<std::mutex> log_lock(shard.log_mu);
      shard.log = std::move(healed);

      // Phase 1: find the true end of the healed log by forward validity
      // scanning (records appended after the last durable status write,
      // and everything a failed sync left behind, are rediscovered here; a
      // torn trailing record fails its checksum and bounds the scan).
      RVM_ASSIGN_OR_RETURN(uint64_t found, shard.log->ExtendTailForward());
      phase_us =
          RecordPhase(SpanKind::kRecoveryScan, shard.index, phase_us, found);
      has_records = shard.log->used() > 0;
      if (has_records) {
        std::set<TransactionId> prepared;
        RVM_RETURN_IF_ERROR(
            CollectShardTidSetsBothLocked(shard, &prepared, &decided));
      }
    }

    if (has_records) {
      // Phase 2: decided = (this shard's decisions ∪ every live sibling's
      // decisions) minus the transactions this process already presumed
      // aborted. The subtraction is what keeps the repaired shard consistent
      // with its live siblings: a cross-shard abort may have left a durable
      // decision-less prepare here — or even a durable decision whose
      // in-process outcome was an abort (the decision force failed after the
      // record hit the file) — and the siblings have already rolled that
      // transaction back.
      for (const auto& other : shards_) {
        if (other->index == index) {
          continue;
        }
        std::set<TransactionId> sibling_prepared;
        std::lock_guard<std::mutex> sibling_lock(other->log_mu);
        RVM_RETURN_IF_ERROR(CollectShardTidSetsBothLocked(
            *other, &sibling_prepared, &decided));
      }
      for (TransactionId tid : aborted_gtids_) {
        decided.erase(tid);
      }

      // Phase 3+4: apply this shard's log newest-record-wins to its (
      // disjoint) segment set, prepares filtered through the decided set.
      std::lock_guard<std::mutex> log_lock(shard.log_mu);
      RVM_RETURN_IF_ERROR(RecoverShardBothLocked(shard, &decided,
                                                 segment_files_, &phase_us));
    }

    // Phase 5: declare the log empty — but if it carried cross-shard
    // decision evidence, force the siblings first, exactly like a live
    // truncation (their markers may still sit in volatile tails).
    RVM_RETURN_IF_ERROR(ForceSiblingEvidenceLocked(shard));
    std::lock_guard<std::mutex> log_lock(shard.log_mu);
    shard.log->MarkEmpty();
    shard.holds_decisions = false;
    RVM_RETURN_IF_ERROR(shard.log->WriteStatus());

    // Re-attach: the log is empty, so no page is dirty with respect to it.
    shard.page_queue.clear();
    for (auto& [base, region] : regions_) {
      if (region->shard == index) {
        region->pages.ClearDirtyAndQueued();
      }
    }
    // Reload each of the shard's regions from its now-current segment (the
    // committed durable image — this also discards any residue a failed
    // commit left in VM), then lay the shard's spooled no-flush commits
    // back over it in commit order: those are committed-but-unlogged and
    // exist nowhere but the spool and VM.
    for (auto& [base, region] : regions_) {
      if (region->shard != index) {
        continue;
      }
      if (!segment_files_.contains(region->segment_id)) {
        RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                             OpenSegmentBothLocked(shard, region->segment_id));
        segment_files_[region->segment_id] = std::move(file);
      }
      File& seg_file = *segment_files_[region->segment_id];
      RVM_ASSIGN_OR_RETURN(
          size_t read,
          seg_file.ReadAt(region->segment_offset,
                          std::span<uint8_t>(region->base, region->length)));
      if (read < region->length) {
        std::memset(region->base + read, 0, region->length - read);
      }
      cpu_.Copy(region->length);
      // Segment leg (DESIGN.md §14): a repair must not re-attach a region
      // whose backing file fails checksum verification — the log was just
      // applied and emptied, so a mismatch here is unrepairable media
      // corruption and the shard goes back to quarantine.
      if (checksums_enabled_) {
        SegmentChecksumMap chk = SegmentChecksumMap::Load(
            env_, region->segment_path, page_size_);
        for (uint64_t off = 0; off < region->length; off += page_size_) {
          const uint64_t page = (region->segment_offset + off) / page_size_;
          if (!chk.known(page)) {
            continue;
          }
          const uint64_t len = std::min(page_size_, region->length - off);
          ++stats_.pages_scrubbed;
          if (Crc32(std::span<const uint8_t>(region->base + off, len)) !=
              chk.crc(page)) {
            ++stats_.checksum_mismatches;
            ++stats_.pages_quarantined;
            RecordEvent(SpanKind::kChecksumMismatch, page, shard.index,
                        region->segment_id);
            return Corruption("segment page failed checksum verification "
                              "during shard repair: " +
                              region->segment_path + " page " +
                              std::to_string(page));
          }
        }
      }
    }
    for (const SpoolEntry& entry : shard.spool) {
      for (const SpoolEntry::SegRange& range : entry.ranges) {
        for (auto& [base, region] : regions_) {
          if (region->segment_id == range.segment &&
              range.offset >= region->segment_offset &&
              range.offset + range.length <=
                  region->segment_offset + region->length) {
            std::memcpy(
                region->base + (range.offset - region->segment_offset),
                entry.data.data() + range.data_offset, range.length);
            cpu_.Copy(range.length);
            break;
          }
        }
      }
    }
    return OkStatus();
  }();

  if (!result.ok()) {
    // Back to quarantine with the repair failure as the new cause; the
    // shard is still contained and a later repair attempt can run against
    // a better file.
    std::lock_guard<std::mutex> lock(poison_mu_);
    shard.quarantine_cause = result;
    shard.health.store(static_cast<uint32_t>(ShardHealth::kQuarantined),
                       std::memory_order_release);
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    shard.quarantine_cause = OkStatus();
    shard.health.store(static_cast<uint32_t>(ShardHealth::kOk),
                       std::memory_order_release);
  }
  ++stats_.shard_repairs_completed;
  RecordEvent(SpanKind::kShardRepair, 1, index);
  RVM_LOG_INFO("rvm shard %u repaired and re-attached", index);
  // The quarantine sidecar is stale evidence now; best-effort cleanup.
  (void)env_->Delete(shard.path + ".quarantine.json");
  return OkStatus();
}

}  // namespace rvm
