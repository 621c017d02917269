// The event ring: per-transaction span tracing and the flight recorder
// (DESIGN.md §10, §15), one record model.
//
// Every observable event is a Span: an interval [start_us, end_us] of one
// kind on one log shard, optionally owned by a transaction (tid) and linked
// to a parent. Instantaneous events (txn-begin, io-error, poison, ...) are
// zero-duration records. Every commit leaves one root record; each commit
// that is sampled (1-in-N by tid) or slower than the outlier threshold also
// leaves its phase children (queue-wait, dwell, ack, and for cross-shard
// commits the per-participant 2PC prepare and coordinator decision legs),
// all keyed by the transaction id so the decision force on the coordinator
// shard can be correlated with the prepare forces on the participant
// shards. A commit's own appends and the forces it leads are recorded where
// they happen and link to its root.
//
// Records are stamped with the owning Env's clock, so a run under SimEnv or
// CrashSimEnv produces bit-identical traces. Collection is a per-shard
// lock-free ring (SpanRing) safe to write from any thread and lock state;
// readers take a point-in-time snapshot without stopping writers.
//
// This layer must not depend on src/rvm — the instance owns a
// SpanCollector and pushes fully-formed Span values into it.
#ifndef RVM_TELEMETRY_SPAN_H_
#define RVM_TELEMETRY_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rvm {

enum class SpanKind : uint8_t {
  kCommit = 0,     // root of a commit; arg = end-to-end latency (µs)
  kQueueWait,      // waiting for the state lock; arg = wait (µs)
  kAppend,         // bookkeeping + log append; arg = log offset of the record
  kDwell,          // group-commit leader dwell window
  kForce,          // one log fsync; arg = durable LSN after it
  kAck,            // from the last durable point to the commit ack
  kTwoPcPrepare,   // 2PC participant prepare append + force (one per shard)
  kTwoPcDecision,  // 2PC coordinator decision force — the commit point
  kTruncation,     // one truncation pass; arg = 0 epoch, 1 incremental
  kRecoveryScan,   // per-shard tail scan; arg = records found past the tail
  kRecoveryApply,  // per-shard log-to-segment replay; arg = records applied
  kStatusWrite,    // one status-block write and its fsync, a child of the
                   // truncation, recovery-apply or terminate record it
                   // ends; arg = the block's generation
  kTerminate,      // Terminate's final flush and status writes; arg =
                   // status blocks written
  // Zero-duration events. Those that carry two values and own no
  // transaction put the first in `tid` (noted as tid=).
  kTxnBegin,          // tid = the new transaction
  kSetRange,          // arg = length
  kTruncationStep,    // arg = page index written back
  kIoError,           // arg = ErrorCode of the observed failure
  kPoison,            // arg = ErrorCode of the poisoning failure
  kShardQuarantine,   // shard = the quarantined shard; arg = ErrorCode
  kShardRepair,       // shard = the repaired shard; arg = 0 started, 1 done
  kScrub,             // tid= pages scrubbed; arg = mismatches found
  kChecksumMismatch,  // tid= segment id; arg = page index in the file
  kPageRepair,        // tid= segment id; arg = page index in the file
};

// Stable lowercase-dash name, the "kind" field of rvm-spans-v1.
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t span_id = 0;    // nonzero, unique within one collector
  uint64_t parent_id = 0;  // 0 = root
  uint64_t tid = 0;        // owning transaction (see SpanKind); else 0
  SpanKind kind = SpanKind::kCommit;
  uint32_t shard = 0;      // log shard the work ran against
  uint64_t start_us = 0;   // owning Env's clock
  uint64_t end_us = 0;     // >= start_us
  uint64_t arg = 0;        // kind-specific payload (see SpanKind)
};

// One rvm-spans-v1 line: {"span_id":..,"parent_id":..,"tid":..,
// "kind":"commit","shard":..,"start_us":..,"end_us":..,"arg":..}
std::string SpanJson(const Span& span);

// Full rvm-spans-v1 JSONL document: a header line naming the schema,
// source, and shard count, then one span per line.
std::string SpansJsonl(const std::vector<Span>& spans,
                       const std::string& source, uint32_t shards);

// The same spans as a Chrome trace-event JSON object loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: one "X" complete event per span on
// a per-shard track (pid 1, tid = shard), thread_name metadata per shard,
// and "s"/"f" flow events drawing an arrow from each 2PC participant
// prepare to its coordinator decision (matched by transaction id).
std::string SpansToChromeTrace(const std::vector<Span>& spans,
                               uint32_t shards);

// Fixed-capacity lock-free span ring. Writers take a slot with one
// fetch_add and publish through a per-slot sequence word (odd while a write
// is in flight, even once complete), which they claim with a CAS: a writer
// that wraps onto a slot another writer is still filling drops its record,
// so one slot never holds two writers' fields. Every payload field is a
// relaxed atomic, so concurrent wrap-around is a stale read, never a data
// race. Snapshot() drops slots it observes mid-overwrite. Each slot is 64
// bytes.
class SpanRing {
 public:
  explicit SpanRing(size_t capacity);

  void Record(const Span& span);
  // Completed slots in completion order, (end_us, span_id): a record is
  // written when it ends, so this is the order a flight recorder saw them
  // in. Does not clear — dumping evidence must not erase it.
  std::vector<Span> Snapshot() const;

  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  // Spans overwritten by wrap-around (recorded minus what a snapshot can
  // still observe).
  uint64_t dropped() const {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    // 0 = never written; 2t+1 while ticket t's write is in flight; 2t+2
    // once its payload is complete.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> span_id{0};
    std::atomic<uint64_t> parent_id{0};
    std::atomic<uint64_t> tid{0};
    std::atomic<uint64_t> kind_shard{0};  // kind | shard << 8
    std::atomic<uint64_t> start_us{0};
    std::atomic<uint64_t> end_us{0};
    std::atomic<uint64_t> arg{0};
  };
  // RvmOptions::span_ring_capacity's memory budget assumes this size.
  static_assert(sizeof(Slot) == 64);

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

// Most recent slow-commit trees a SpanCollector retains for the poison
// sidecar.
inline constexpr size_t kSpanOutlierCapacity = 4;

// Owns one SpanRing per log shard plus the slow-commit outlier store. The
// two commit-tree capture policies run simultaneously: SampleTid implements
// the 1-in-N sampling knob, and RetainOutlier keeps the whole tree of a
// commit that blew the latency threshold (most recent kSpanOutlierCapacity
// trees, embedded in the poison sidecar).
class SpanCollector {
 public:
  struct Options {
    uint32_t shards = 1;
    size_t ring_capacity = 1024;     // per shard
    uint32_t sample_rate = 0;        // sample 1-in-N tids; 0 = off
    uint64_t slow_threshold_us = 0;  // outlier recorder; 0 = off
  };
  explicit SpanCollector(const Options& options);

  // True when tid falls in the 1-in-N sample.
  bool SampleTid(uint64_t tid) const {
    return sample_rate_ != 0 && tid % sample_rate_ == 0;
  }
  uint64_t slow_threshold_us() const { return slow_threshold_us_; }
  // True when either policy can materialize a commit's phase children.
  bool captures_trees() const {
    return sample_rate_ != 0 || slow_threshold_us_ != 0;
  }

  // Allocates the next span id (starts at 1; 0 means "no parent").
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // Records one span into its shard's ring.
  void Record(const Span& span);
  // Counts a slow commit and retains its whole tree (already recorded) in
  // the bounded most-recent-outliers store.
  void RetainOutlier(std::vector<Span> tree);

  // Point-in-time merge of every shard's ring, ordered (end_us, span_id).
  std::vector<Span> Snapshot() const;
  // The retained slow-commit trees, oldest first.
  std::vector<std::vector<Span>> OutlierTrees() const;

  uint64_t recorded() const;
  uint64_t dropped() const;
  uint64_t slow_commits() const {
    return slow_commits_.load(std::memory_order_relaxed);
  }
  uint32_t shards() const { return shards_; }

 private:
  const uint32_t shards_;
  const uint32_t sample_rate_;
  const uint64_t slow_threshold_us_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> slow_commits_{0};
  mutable std::mutex outlier_mu_;
  std::deque<std::vector<Span>> outliers_;  // outlier_mu_
};

}  // namespace rvm

#endif  // RVM_TELEMETRY_SPAN_H_
