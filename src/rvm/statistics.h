// Operation counters and latency histograms, including the log-traffic
// optimization accounting that reproduces Table 2.
//
// Counters are individually atomic so they can be bumped from any thread
// (commit path under the state lock, group-commit leaders under no lock at
// all, truncation thread) and read without synchronization. Writers bracket
// related multi-field updates with MultiFieldUpdate so Snapshot() can detect
// a copy that raced with one and retry it (see the seqlock comment on
// Snapshot below).
#ifndef RVM_RVM_STATISTICS_H_
#define RVM_RVM_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/histogram.h"
#include "src/telemetry/json.h"

namespace rvm {

// a - b, clamped at zero. Derived statistics subtract counters that are
// bumped at different instants (e.g. batched txns vs. batches), so a racing
// read can observe the subtrahend ahead of the minuend; every such derivation
// must go through this helper rather than repeating the underflow check.
inline uint64_t SaturatingSub(uint64_t a, uint64_t b) {
  return a > b ? a - b : 0;
}

// A copyable atomic counter. All operations use relaxed ordering: these are
// monitoring counters, never used to publish data between threads.
class StatCounter {
 public:
  StatCounter() = default;
  explicit StatCounter(uint64_t value) : value_(value) {}
  StatCounter(const StatCounter& other) : value_(other.load()) {}
  StatCounter& operator=(const StatCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    return *this;
  }

  StatCounter& operator++() {
    value_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }
  // Lowers (raises) the counter to `value` if smaller (larger) than the
  // current value; used for watermark tracking.
  void StoreMin(uint64_t value) {
    uint64_t current = load();
    while (value < current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  void StoreMax(uint64_t value) {
    uint64_t current = load();
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }

  uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return load(); }

 private:
  std::atomic<uint64_t> value_{0};
};

// One half of the statistics seqlock: a copyable atomic whose increments are
// release operations and whose loads are acquire operations, so a reader
// that sees `updates_done_` advance is guaranteed to also see every counter
// store the writer made before bumping it.
class UpdateSeq {
 public:
  UpdateSeq() = default;
  UpdateSeq(const UpdateSeq& other) : value_(other.Load()) {}
  UpdateSeq& operator=(const UpdateSeq& other) {
    value_.store(other.Load(), std::memory_order_relaxed);
    return *this;
  }
  void Bump() { value_.fetch_add(1, std::memory_order_acq_rel); }
  uint64_t Load() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> value_{0};
};

struct RvmStatistics {
  StatCounter transactions_committed;
  StatCounter transactions_aborted;
  StatCounter flush_commits;
  StatCounter no_flush_commits;
  StatCounter set_range_calls;

  // Log-traffic accounting (Table 2). "requested" counts every byte named by
  // a set_range call; "logged" counts record bytes actually written to the
  // log file; the two savings counters attribute the suppressed volume.
  StatCounter bytes_requested;
  StatCounter bytes_logged;
  StatCounter intra_saved_bytes;  // duplicate/overlap coalescing (§5.2)
  StatCounter inter_saved_bytes;  // subsumed unflushed records (§5.2)

  StatCounter log_forces;
  StatCounter log_flush_calls;
  // Status-block writes (DESIGN.md §12): dictionary changes, head moves,
  // recovery and Terminate. Each costs one fsync of its own, so the log
  // device's syncs are exactly log_forces + status_writes.
  StatCounter status_writes;

  // Group commit: one leader forces the log for every committer whose record
  // is already appended. batched_txns counts commits whose durability was
  // satisfied by some batch; batches counts the forces that served them, so
  // group_commit_saved_forces() is the number of fsyncs batching saved.
  StatCounter group_commit_batches;
  StatCounter group_commit_batched_txns;

  // Commits whose end-to-end latency exceeded
  // RvmOptions::slow_commit_threshold_us; each one's full span tree is
  // retained by the slow-commit outlier recorder (DESIGN.md §15). Zero when
  // span tracing is disabled.
  StatCounter slow_commits;

  // In-flight cross-shard 2PC window, for the crash-schedule explorer
  // (mirrors the truncation window below): started is bumped when a
  // cross-shard commit begins appending prepares, decided once its decision
  // record is durable. A crash that observes started > decided fell between
  // the first prepare append and the decision force — recovery must presume
  // abort, atomically across every participating shard.
  StatCounter cross_shard_commits_started;
  StatCounter cross_shard_commits_decided;

  // In-flight truncation window, for the crash-schedule explorer
  // (src/check/): started is bumped when a truncation begins writing
  // segment data, completed once its status-block write lands. A crash that
  // observes started > completed fell between a truncation segment write
  // and the head advance that acknowledges it — the window recovery must
  // make harmless.
  StatCounter truncations_started;
  StatCounter truncations_completed;

  StatCounter epoch_truncations;
  StatCounter incremental_steps;
  StatCounter incremental_pages_written;
  StatCounter truncation_records_applied;
  StatCounter truncation_bytes_applied;

  StatCounter recovery_records_applied;
  StatCounter recovery_bytes_applied;

  // Failure containment (DESIGN.md "Failure model and error containment").
  // io_errors counts every kIoError/kCorruption the instance observed;
  // swallowed_truncation_failures counts post-commit/post-flush truncation
  // errors that were reported only via the log (the commit itself was
  // already durable); log_full_retries counts append attempts repeated
  // after reclaiming space; poisoned is 1 once the instance has entered
  // fail-stop mode.
  StatCounter io_errors;
  StatCounter swallowed_truncation_failures;
  StatCounter log_full_retries;
  StatCounter poisoned;

  // Shard fault domains (DESIGN.md §13). io_retries counts every transient
  // (kUnavailable/short-read) I/O attempt repeated under the backoff budget;
  // shard_quarantines counts shards entering quarantine (a permanent failure
  // contained to one shard of a multi-shard instance); shard_repairs_started
  // / _completed bracket RepairShard runs, so started > completed means a
  // repair is in flight (or died mid-way).
  StatCounter io_retries;
  StatCounter shard_quarantines;
  StatCounter shard_repairs_started;
  StatCounter shard_repairs_completed;

  // Data-segment integrity (DESIGN.md §14). pages_scrubbed counts pages
  // verified against the per-segment checksum map (scrubs plus eager
  // verify-on-map); checksum_mismatches counts pages whose file image
  // disagreed with the map; pages_repaired counts mismatches healed by
  // re-deriving the newest committed image from live log records;
  // pages_quarantined counts mismatches that could not be repaired and
  // escalated to shard quarantine (or instance poison).
  StatCounter pages_scrubbed;
  StatCounter checksum_mismatches;
  StatCounter pages_repaired;
  StatCounter pages_quarantined;

  // Latency distributions, in microseconds of the owning Env's clock
  // (DESIGN.md §10). commit_latency_us is end-to-end flush-commit latency
  // (EndTransaction entry to durability ack); the commit_* sub-phase
  // histograms decompose it into lock queueing, record append, the group
  // leader's dwell window, and the fsync itself. log_force_us times every
  // log force regardless of caller, status_write_us every status-block
  // write; set_range_us, truncation_step_us, and recovery_apply_us cover the
  // remaining hot paths.
  LatencyHistogram commit_latency_us;
  LatencyHistogram commit_queue_wait_us;
  LatencyHistogram commit_append_us;
  LatencyHistogram commit_fsync_us;
  LatencyHistogram commit_group_dwell_us;
  LatencyHistogram log_force_us;
  LatencyHistogram status_write_us;
  LatencyHistogram set_range_us;
  LatencyHistogram truncation_step_us;
  LatencyHistogram recovery_apply_us;

  // A point-in-time copy with torn-read detection (the seqlock that closes
  // the historical "fields may land from different instants" caveat).
  // Writers bracket every related multi-field update with MultiFieldUpdate,
  // which bumps updates_begun_ before the first store and updates_done_
  // after the last. A reader copies the struct only while the two counters
  // agree and re-checks them afterwards: if either moved, the copy may mix
  // fields from before and after an update cluster and is retried.
  //
  // Works with any number of concurrent writers (unlike a parity seqlock:
  // begun/done stay equal only when no writer is mid-cluster). The retry
  // loop is bounded — under sustained write pressure (e.g. a commit storm)
  // the last copy is returned anyway, degrading to the old per-field-atomic
  // behavior rather than livelocking a monitoring reader; such a copy
  // reports updates_in_flight() == 1, so a caller can tell it from a clean
  // one. Counters not inside any cluster still land at whatever instant the
  // copy read them; the clusters cover the derivations display code
  // actually performs (group-commit saved forces, truncation in-flight
  // window, Table 2 byte accounting).
  RvmStatistics Snapshot() const {
    static constexpr int kMaxRetries = 16;
    RvmStatistics copy;
    for (int attempt = 0;; ++attempt) {
      const uint64_t done = updates_done_.Load();
      const uint64_t begun = updates_begun_.Load();
      copy = *this;
      const bool clean = begun == done && updates_begun_.Load() == begun &&
                         updates_done_.Load() == done;
      if (clean) {
        return copy;
      }
      if (attempt + 1 >= kMaxRetries) {
        // The bounded-degradation fallback: the seq halves were copied at
        // other instants than the counters, so mark the copy as torn.
        copy.updates_done_ = copy.updates_begun_;
        copy.updates_begun_.Bump();
        return copy;
      }
    }
  }

  // Seqlock halves. Writers never touch these directly — MultiFieldUpdate
  // (below) bumps them; Snapshot() reads them. Kept public so the struct
  // stays an aggregate and the helper needs no friendship.
  UpdateSeq updates_begun_;
  UpdateSeq updates_done_;
  // Writer-side updates in flight right now, for tests and debugging.
  uint64_t updates_in_flight() const {
    return SaturatingSub(updates_begun_.Load(), updates_done_.Load());
  }

  // fsyncs avoided by group commit (see the member comment above).
  uint64_t group_commit_saved_forces() const {
    return SaturatingSub(group_commit_batched_txns, group_commit_batches);
  }

  // Total volume the log would have carried with no optimizations.
  uint64_t unoptimized_log_bytes() const {
    return bytes_logged + intra_saved_bytes + inter_saved_bytes;
  }

  // Visits every counter as (name, value). The names double as the JSON
  // counter keys, so adding a counter here automatically lands it in every
  // telemetry document.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    fn("transactions_committed", transactions_committed.load());
    fn("transactions_aborted", transactions_aborted.load());
    fn("flush_commits", flush_commits.load());
    fn("no_flush_commits", no_flush_commits.load());
    fn("set_range_calls", set_range_calls.load());
    fn("bytes_requested", bytes_requested.load());
    fn("bytes_logged", bytes_logged.load());
    fn("intra_saved_bytes", intra_saved_bytes.load());
    fn("inter_saved_bytes", inter_saved_bytes.load());
    fn("log_forces", log_forces.load());
    fn("log_flush_calls", log_flush_calls.load());
    fn("status_writes", status_writes.load());
    fn("group_commit_batches", group_commit_batches.load());
    fn("slow_commits", slow_commits.load());
    fn("group_commit_batched_txns", group_commit_batched_txns.load());
    fn("group_commit_saved_forces", group_commit_saved_forces());
    fn("cross_shard_commits_started", cross_shard_commits_started.load());
    fn("cross_shard_commits_decided", cross_shard_commits_decided.load());
    fn("truncations_started", truncations_started.load());
    fn("truncations_completed", truncations_completed.load());
    fn("epoch_truncations", epoch_truncations.load());
    fn("incremental_steps", incremental_steps.load());
    fn("incremental_pages_written", incremental_pages_written.load());
    fn("truncation_records_applied", truncation_records_applied.load());
    fn("truncation_bytes_applied", truncation_bytes_applied.load());
    fn("recovery_records_applied", recovery_records_applied.load());
    fn("recovery_bytes_applied", recovery_bytes_applied.load());
    fn("io_errors", io_errors.load());
    fn("swallowed_truncation_failures", swallowed_truncation_failures.load());
    fn("log_full_retries", log_full_retries.load());
    fn("poisoned", poisoned.load());
    fn("io_retries", io_retries.load());
    fn("shard_quarantines", shard_quarantines.load());
    fn("shard_repairs_started", shard_repairs_started.load());
    fn("shard_repairs_completed", shard_repairs_completed.load());
    fn("pages_scrubbed", pages_scrubbed.load());
    fn("checksum_mismatches", checksum_mismatches.load());
    fn("pages_repaired", pages_repaired.load());
    fn("pages_quarantined", pages_quarantined.load());
  }

  // Visits every histogram as (name, histogram). The names double as the
  // JSON histogram keys.
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    fn("commit_latency_us", commit_latency_us);
    fn("commit_queue_wait_us", commit_queue_wait_us);
    fn("commit_append_us", commit_append_us);
    fn("commit_fsync_us", commit_fsync_us);
    fn("commit_group_dwell_us", commit_group_dwell_us);
    fn("log_force_us", log_force_us);
    fn("status_write_us", status_write_us);
    fn("set_range_us", set_range_us);
    fn("truncation_step_us", truncation_step_us);
    fn("recovery_apply_us", recovery_apply_us);
  }
};

// RAII writer side of the statistics seqlock: brackets a cluster of related
// counter updates so Snapshot() can detect (and retry past) a copy that
// landed mid-cluster. Keep the guarded section short and free of blocking
// I/O — a reader that keeps catching writers mid-cluster degrades to an
// unvalidated copy after a bounded number of retries, so a long-lived scope
// only erodes the guarantee it exists to provide.
class MultiFieldUpdate {
 public:
  explicit MultiFieldUpdate(RvmStatistics& stats) : stats_(stats) {
    stats_.updates_begun_.Bump();
  }
  ~MultiFieldUpdate() { stats_.updates_done_.Bump(); }
  MultiFieldUpdate(const MultiFieldUpdate&) = delete;
  MultiFieldUpdate& operator=(const MultiFieldUpdate&) = delete;

 private:
  RvmStatistics& stats_;
};

// One histogram object for the telemetry schema. Only non-empty buckets are
// emitted; `le` is the bucket's inclusive upper bound.
inline std::string HistogramJson(const LatencyHistogram::Snapshot& s) {
  char buf[192];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
                "\"mean\":%.3f,\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,"
                "\"buckets\":[",
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.sum),
                static_cast<unsigned long long>(s.min),
                static_cast<unsigned long long>(s.max), s.Mean(),
                s.Percentile(50), s.Percentile(90), s.Percentile(99));
  out += buf;
  bool first = true;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    if (s.buckets[i] == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%s{\"le\":%llu,\"count\":%llu}",
                  first ? "" : ",",
                  static_cast<unsigned long long>(
                      LatencyHistogram::BucketUpperBound(i)),
                  static_cast<unsigned long long>(s.buckets[i]));
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

// The counters alone as one flat JSON object — the "counters" member of an
// rvm-timeseries-v2 sample line, where per-sample histograms would bloat
// the document without adding signal (the histograms are cumulative; the
// final telemetry document carries them once).
inline std::string StatisticsCountersJson(const RvmStatistics& stats) {
  std::string out = "{";
  bool first = true;
  stats.ForEachCounter([&](const char* name, uint64_t value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",", name,
                  static_cast<unsigned long long>(value));
    out += buf;
    first = false;
  });
  out += "}";
  return out;
}

// One run object ({"name": ..., "counters": {...}, "histograms": {...}}) for
// the telemetry schema. `extra_counters` lets a caller append run-specific
// measurements (e.g. a benchmark's wall-clock) next to the RVM counters.
inline std::string StatisticsJsonRun(
    const std::string& name, const RvmStatistics& stats,
    const std::vector<std::pair<std::string, uint64_t>>& extra_counters = {}) {
  std::string out = "{\"name\":\"" + JsonEscape(name) + "\",\"counters\":{";
  bool first = true;
  stats.ForEachCounter([&](const char* counter_name, uint64_t value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                  counter_name, static_cast<unsigned long long>(value));
    out += buf;
    first = false;
  });
  for (const auto& [extra_name, value] : extra_counters) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += (first ? "\"" : ",\"") + JsonEscape(extra_name) + "\":" + buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  stats.ForEachHistogram([&](const char* hist_name,
                             const LatencyHistogram& histogram) {
    out += (first ? "\"" : ",\"") + std::string(hist_name) +
           "\":" + HistogramJson(histogram.TakeSnapshot());
    first = false;
  });
  out += "}}";
  return out;
}

// The complete telemetry document shared by `rvmutl stats --json`, the bench
// binaries, and the poison flight-recorder dump. `runs` are pre-rendered run
// objects (StatisticsJsonRun); `extra_fields`, when nonempty, is spliced in
// as additional top-level members (e.g. "\"reason\":\"...\"").
inline std::string TelemetryJsonDocument(const std::string& source,
                                         const std::vector<std::string>& runs,
                                         const std::string& extra_fields = "") {
  std::string out = std::string("{\"schema\":\"") + kTelemetrySchemaVersion +
                    "\",\"source\":\"" + JsonEscape(source) + "\",";
  if (!extra_fields.empty()) {
    out += extra_fields;
    out += ',';
  }
  out += "\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += runs[i];
  }
  out += "]}\n";
  return out;
}

// Human-readable rendering, shared by `rvmutl ... stats` and benchmarks.
inline std::string FormatStatistics(const RvmStatistics& stats) {
  char line[160];
  std::string out;
  auto row = [&](const char* name, uint64_t value) {
    std::snprintf(line, sizeof(line), "%-28s %12llu\n", name,
                  static_cast<unsigned long long>(value));
    out += line;
  };
  auto frow = [&](const char* name, double value) {
    std::snprintf(line, sizeof(line), "%-28s %12.1f\n", name, value);
    out += line;
  };
  row("transactions committed:", stats.transactions_committed);
  row("transactions aborted:", stats.transactions_aborted);
  row("flush commits:", stats.flush_commits);
  row("no-flush commits:", stats.no_flush_commits);
  row("set_range calls:", stats.set_range_calls);
  row("bytes requested:", stats.bytes_requested);
  row("bytes logged:", stats.bytes_logged);
  row("intra-txn bytes saved:", stats.intra_saved_bytes);
  row("inter-txn bytes saved:", stats.inter_saved_bytes);
  row("log forces:", stats.log_forces);
  row("log flush calls:", stats.log_flush_calls);
  row("status writes:", stats.status_writes);
  row("group commit batches:", stats.group_commit_batches);
  row("slow commits:", stats.slow_commits);
  row("group commit batched txns:", stats.group_commit_batched_txns);
  row("group commit saved forces:", stats.group_commit_saved_forces());
  row("cross-shard 2pc commits:", stats.cross_shard_commits_started);
  row("cross-shard 2pc decided:", stats.cross_shard_commits_decided);
  const LatencyHistogram::Snapshot commit =
      stats.commit_latency_us.TakeSnapshot();
  row("commit latency samples:", commit.count);
  frow("commit latency mean us:", commit.Mean());
  row("commit latency min us:", commit.min);
  frow("commit latency p50 us:", commit.Percentile(50));
  frow("commit latency p90 us:", commit.Percentile(90));
  frow("commit latency p99 us:", commit.Percentile(99));
  row("commit latency max us:", commit.max);
  row("truncations started:", stats.truncations_started);
  row("truncations completed:", stats.truncations_completed);
  row("epoch truncations:", stats.epoch_truncations);
  row("incremental steps:", stats.incremental_steps);
  row("incremental pages written:", stats.incremental_pages_written);
  row("truncation records applied:", stats.truncation_records_applied);
  row("truncation bytes applied:", stats.truncation_bytes_applied);
  row("recovery records applied:", stats.recovery_records_applied);
  row("recovery bytes applied:", stats.recovery_bytes_applied);
  row("io errors:", stats.io_errors);
  row("swallowed truncation fails:", stats.swallowed_truncation_failures);
  row("log-full retries:", stats.log_full_retries);
  row("poisoned:", stats.poisoned);
  row("io retries:", stats.io_retries);
  row("shard quarantines:", stats.shard_quarantines);
  row("shard repairs started:", stats.shard_repairs_started);
  row("shard repairs completed:", stats.shard_repairs_completed);
  row("pages scrubbed:", stats.pages_scrubbed);
  row("checksum mismatches:", stats.checksum_mismatches);
  row("pages repaired:", stats.pages_repaired);
  row("pages quarantined:", stats.pages_quarantined);
  out += "phase histograms (count mean p50 p99 max, us):\n";
  stats.ForEachHistogram([&](const char* name,
                             const LatencyHistogram& histogram) {
    const LatencyHistogram::Snapshot s = histogram.TakeSnapshot();
    if (s.count == 0) {
      return;
    }
    std::snprintf(line, sizeof(line),
                  "  %-24s %8llu %10.1f %10.1f %10.1f %10llu\n", name,
                  static_cast<unsigned long long>(s.count), s.Mean(),
                  s.Percentile(50), s.Percentile(99),
                  static_cast<unsigned long long>(s.max));
    out += line;
  });
  return out;
}

}  // namespace rvm

#endif  // RVM_RVM_STATISTICS_H_
