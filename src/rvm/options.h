// Initialization options and runtime tuning knobs (§4.2 options_desc and
// set_options).
#ifndef RVM_RVM_OPTIONS_H_
#define RVM_RVM_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/os/file.h"
#include "src/rvm/cpu_model.h"
#include "src/util/status.h"

namespace rvm {

// Upper bound on RvmOptions::log_shards. Sharding exists to spread the
// group-commit fsync streams across devices/journal slots; beyond a few
// dozen shards the per-shard logs are too small to batch and the manifest
// fan-out is pure overhead, so larger values are treated as configuration
// errors rather than honored.
inline constexpr uint32_t kMaxLogShards = 64;

// Knobs adjustable after initialization via RvmInstance::SetOptions.
struct RuntimeOptions {
  // Truncation triggers when log usage exceeds this fraction of capacity
  // ("threshold for triggering log truncation", §4.2).
  double truncation_threshold = 0.50;
  // Incremental truncation reclaims until usage falls below this fraction.
  double truncation_target = 0.25;
  // At most this many page writebacks per incremental trigger, so the work
  // is spread across commits instead of bursting (the point of Fig. 7's
  // design over epoch truncation).
  uint64_t incremental_max_steps = 16;
  // If incremental truncation is blocked (head page has uncommitted or
  // unflushed changes) and usage exceeds this fraction, RVM reverts to epoch
  // truncation (§5.1.2).
  double epoch_critical_fraction = 0.90;
  // The paper's measured version supported only epoch truncation; the
  // incremental mechanism (Fig. 7) was "being debugged". Both are
  // implemented here; this selects which one auto-truncation uses.
  bool use_incremental_truncation = true;
  // Intra-transaction set_range coalescing (§5.2).
  bool enable_intra_optimization = true;
  // Inter-transaction subsumption of unflushed no-flush records (§5.2).
  bool enable_inter_optimization = true;
  // Only the newest N spooled records are checked for subsumption: the
  // optimization targets temporal locality (cp d1/* d2 bursts), and an
  // unbounded scan would make commit cost quadratic in spool length.
  uint64_t inter_optimization_window = 64;
  // Spooled no-flush bytes that force an automatic log flush ("sizes of
  // internal buffers", §4.2).
  uint64_t max_spool_bytes = 4ull << 20;
  // If nonempty, every epoch truncation first archives the live log records
  // to "<prefix><generation>" — a fully formatted log file that rvmutl can
  // inspect. This is §6's post-mortem debugging workflow ("save a copy of
  // the log before truncation") as a first-class option.
  std::string log_archive_prefix;
  // Group commit: flush committers whose records are appended while another
  // committer's log force is in flight share that force instead of issuing
  // their own (the paper's dominant commit cost, §5 Table 1, amortized
  // across concurrently arriving transactions). A group leader may
  // additionally dwell up to this long waiting for more committers to
  // arrive before forcing; 0 forces immediately, so batching is purely
  // opportunistic and single-threaded commit latency is unchanged.
  uint64_t group_commit_max_wait_us = 0;
  // A dwelling leader stops waiting early once this many committers are
  // pending in the group-commit stage.
  uint64_t group_commit_max_batch = 16;
  // kLogFull on append is transient: the committer reclaims space
  // (incremental truncation first, an epoch pass as the last attempt) and
  // retries, at most this many times before surfacing kLogFull to the
  // caller. Retrying is coordinated with truncation rather than timed
  // backoff: sleeping would stall the append path while holding the state
  // lock, which is exactly what the background truncation thread needs to
  // make progress.
  uint64_t log_full_retry_limit = 3;
  // Transient-I/O retry budget (DESIGN.md §13). A log read or write failing
  // with kUnavailable (the EINTR/EAGAIN/short-read class) is retried at most
  // this many times with exponential backoff before being treated as
  // permanent; 0 disables retrying entirely. A sync retry never reuses the
  // failed fd — the shard file is reopened and the unsynced tail replayed
  // first, preserving the no-fsync-retry-on-the-same-fd invariant.
  uint64_t io_retry_limit = 3;
  // Backoff before the first retry; doubles per attempt (with deterministic
  // jitter) up to io_retry_backoff_max_us. Slept via Env::SleepMicros, a
  // no-op on simulated environments so tests never stall.
  uint64_t io_retry_backoff_us = 100;
  uint64_t io_retry_backoff_max_us = 10'000;
};

// Whether truncation runs on a dedicated thread ("log truncation is usually
// performed transparently in the background by RVM", §4.2) or inline on the
// committing thread. Fixed at Initialize time.
enum class TruncationMode {
  kInline,
  kBackground,
};

struct RvmOptions {
  // The environment everything runs on. Defaults to the real OS.
  Env* env = nullptr;  // nullptr -> GetRealEnv()

  // The write-ahead log for this process (one log per process, §3.3).
  // Must have been created with RvmInstance::CreateLog.
  std::string log_path;

  // Number of independent log shards (DESIGN.md §12). 1 (the default) keeps
  // the original single-log on-disk format. N > 1 stripes regions across N
  // logs named "<log_path>.shard<K>" described by a manifest block at
  // log_path; must match the shard count the log was created with.
  uint32_t log_shards = 1;

  // Region granularity. Mappings and set_range bookkeeping use this.
  uint64_t page_size = 4096;

  // Simulated-CPU cost model; ignored (no-op) on the real environment.
  CpuModel cpu_model;

  // Background truncation requires a real environment (the simulated clock
  // is single-threaded); benchmarks use kInline.
  TruncationMode truncation_mode = TruncationMode::kInline;

  // Telemetry (DESIGN.md §10, §15). Every event — txn begin, set_range,
  // append, force, commit, truncation, recovery, io-error/poison, scrub,
  // repair — is one record in a lock-free ring per log shard holding the
  // newest `span_ring_capacity` records; 0 disables the ring (no records,
  // no clock reads for them). Each slot is 64 bytes, so the default costs
  // 64 KiB per shard and keeps a few hundred transactions of
  // flight-recorder context. Time series, metrics export and SLO rules are
  // not options: they live in RvmMonitor (src/monitor/), a layer above.
  uint64_t span_ring_capacity = 1024;
  // When the instance poisons, dump the flight recorder (newest ring
  // records plus a full statistics snapshot) to "<log_path>.poison.json".
  bool enable_poison_dump = true;

  // Per-transaction span trees (DESIGN.md §15). Every commit records its
  // root; these two policies decide only whether its phase children are
  // materialized too: span_sample_rate keeps the full tree of every Nth
  // transaction (1 = every transaction, 0 = sampling off), and any commit
  // whose end-to-end latency exceeds slow_commit_threshold_us has its tree
  // materialized and retained for the poison sidecar (0 = off). Both need
  // the ring (span_ring_capacity > 0).
  uint32_t span_sample_rate = 0;
  uint64_t slow_commit_threshold_us = 0;

  // Data-segment integrity (DESIGN.md §14). When enabled, every segment file
  // gains a "<path>.chk" sidecar holding one CRC32 per page, refreshed
  // whenever truncation or recovery writes committed bytes into the segment.
  // ScrubShard/ScrubRegion verify segment files against the sidecar online;
  // a mismatching page is repaired from live log records when its newest
  // committed image is still in the pre-truncation window, else the owning
  // shard is quarantined (DESIGN.md §13). Disabling skips all sidecar
  // maintenance and verification.
  bool enable_page_checksums = true;
  // Verify-on-map policy: kEager verifies every known page checksum while
  // Map() copies the segment into memory (corruption is caught before the
  // application ever sees the bytes, at a startup cost measured by
  // bench_recovery's verify_on_map runs); kLazy defers verification to
  // explicit scrubs.
  enum class VerifyOnMap { kLazy, kEager };
  VerifyOnMap verify_on_map = VerifyOnMap::kLazy;

  RuntimeOptions runtime;
};

// Checks an options struct for configuration errors before any file is
// touched: shard counts outside [1, kMaxLogShards], non-power-of-two page
// sizes, fractions outside (0, 1], zeroed iteration bounds, and group-commit
// dwell/batch values that could stall commits forever. Returns
// kInvalidArgument naming the offending field. RvmInstance::Initialize and
// SetOptions call this; callers constructing options programmatically can
// call it directly for early feedback.
Status ValidateOptions(const RvmOptions& options);
Status ValidateRuntimeOptions(const RuntimeOptions& runtime);

}  // namespace rvm

#endif  // RVM_RVM_OPTIONS_H_
