// CrashExplorer: deterministic enumeration of crash schedules over the
// reference workload, with an oracle check after every one.
//
// A single schedule runs like this (all on a fresh in-memory CrashSimEnv):
//
//   1. Forward phase: create the log, arm the op-indexed crash point, run
//      the scripted workload (RvmInstance::Initialize → Map → transactions,
//      with inline auto-truncation). The armed op fails at its boundary and
//      the environment crashes; `fwd=end` instead runs workload and teardown
//      to completion and then cuts the power. An optional subset seed
//      persists a pseudo-random subset of the still-unsynced writes at the
//      crash instant (page-cache reordering).
//   2. Recovery phases: for each rec= point, Recover() the environment,
//      re-arm the crash point, and attempt RvmInstance::Initialize — a
//      crash *during recovery*. If recovery finishes before the armed op
//      (underflow), the sweep at that depth is exhausted and the schedule
//      proceeds straight to validation.
//   3. Validation: one final unharmed recovery, then the recovered region
//      must match the oracle after exactly k whole transactions with
//      last_ok_flush <= k <= last_attempted_commit (atomicity + permanence),
//      and a further kill/recover cycle must reproduce the identical bytes
//      (idempotence). The upper bound is the last *attempted* commit, not
//      the last acknowledged one: a commit whose EndTransaction was in
//      flight at the crash may land either way — in-order writeback can
//      never persist it ahead of the ack, but subset writeback can.
//
// Fail-stop outcomes: recovery that refuses with kCorruption counts as a
// pass if and only if the schedule used subset writeback. Reordering holes
// can leave an unreadable record with a valid durable successor, which is
// indistinguishable from media damage to committed data — and committed
// data may legitimately live past the durable status tail (a commit whose
// records were forced but whose status write never landed), so silently
// truncating would lose acknowledged transactions. Refusing is the only
// universally safe answer; the explorer verifies RVM takes it. Without
// subset writeback no such ambiguity exists and kCorruption is a failure.
//
// Every failing schedule serializes to a one-line repro string
// (CrashSchedule::ToString) that `rvmutl explore --replay` re-runs
// bit-identically.
#ifndef RVM_CHECK_CRASH_EXPLORER_H_
#define RVM_CHECK_CRASH_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/check/crash_schedule.h"
#include "src/check/oracle.h"
#include "src/os/crash_sim.h"
#include "src/util/status.h"

namespace rvm {

// Result of running one schedule.
struct ScheduleOutcome {
  CrashSchedule schedule;
  // The oracle accepted the recovered state (or a legal fail-stop).
  bool pass = false;
  // Recovery refused with kCorruption after subset writeback (legal).
  bool fail_stop = false;
  // The armed forward crash never fired: the op index is past the end of
  // the workload. The run degenerates to fwd=end.
  bool forward_underflow = false;
  // Index of the first rec= point whose recovery completed before the armed
  // crash fired, or -1 if every rec= point crashed as scheduled. Larger op
  // indices at that depth would also underflow, which bounds sweeps.
  int underflow_rec = -1;
  // The forward crash landed between a truncation segment write and its
  // status-block advance (stats.truncations_started > completed).
  bool truncation_window = false;
  // The forward crash landed inside a cross-shard 2PC — after the first
  // prepare append, before the decision force (stats.cross_shard_commits_
  // started > decided). Recovery must presume abort on every shard.
  bool two_pc_window = false;
  // The forward crash landed after a shard quarantine (fault-domain sweep,
  // stats.shard_quarantines > 0): part of the durable state was written in
  // degraded mode.
  bool quarantine_window = false;
  // The forward crash landed inside an online shard repair
  // (stats.shard_repairs_started > completed): the shard's log and segments
  // were mid-rebuild.
  bool repair_window = false;
  // Highest txn index the recovered image reflects (valid when pass &&
  // !fail_stop).
  uint64_t recovered_prefix = 0;
  // Permanence/atomicity bounds observed in the forward phase. A txn is
  // "attempted" once its EndTransaction is invoked; an attempted-but-not-
  // acknowledged commit may legally recover either way.
  uint64_t last_ok_flush = 0;
  uint64_t last_ok_commit = 0;
  uint64_t last_attempted_commit = 0;
  // Human-readable explanation when pass is false.
  std::string detail;
  // Flight recorder: the failing instance's event ring as an rvm-spans-v1
  // document, captured when validation fails with a live instance to dump.
  // Empty on pass and on failures where no instance survived to ask.
  std::string trace_jsonl;
};

// Enumeration bounds for ExploreAll.
struct ExploreLimits {
  // Maximum crashes per schedule: 1 = forward only, 2 = double crash
  // (forward + one crash during recovery), 3 = triple crash, ...
  size_t max_depth = 2;
  // Sweep every Nth forward / recovery op boundary (1 = exhaustive).
  uint64_t forward_stride = 1;
  uint64_t recovery_stride = 1;
  // Extra subset-writeback variants run at each swept forward / recovery
  // crash point (seed 0 — no writeback — always runs).
  std::vector<uint64_t> forward_subset_seeds;
  std::vector<uint64_t> recovery_subset_seeds;
  // Stop after this many schedules (0 = unbounded).
  uint64_t max_schedules = 0;
};

struct ExploreStats {
  // Ops the uncrashed workload persists (the forward sweep's range).
  uint64_t baseline_ops = 0;
  uint64_t schedules_run = 0;
  uint64_t passed = 0;
  uint64_t failed = 0;
  uint64_t fail_stops = 0;
  // Schedules whose forward crash landed inside a truncation window.
  uint64_t truncation_window_schedules = 0;
  // Schedules whose forward crash landed inside a cross-shard 2PC.
  uint64_t two_pc_window_schedules = 0;
  // Schedules whose forward crash landed after a shard quarantine / inside
  // an online shard repair (fault-domain sweep only).
  uint64_t quarantine_window_schedules = 0;
  uint64_t repair_window_schedules = 0;
  // Deepest schedule run (crashes per schedule).
  uint64_t max_depth_reached = 0;
  // True if max_schedules cut the enumeration short.
  bool budget_exhausted = false;
};

class CrashExplorer {
 public:
  explicit CrashExplorer(const CheckerWorkload& workload);

  const WorkloadOracle& oracle() const { return oracle_; }

  // Runs the workload uncrashed and returns the number of persist-op
  // boundaries it produces (forward crash points are 0..n-1, plus `end`).
  StatusOr<uint64_t> BaselineOps();

  // Runs one schedule from scratch. Deterministic: same schedule, same
  // workload -> bit-identical outcome.
  ScheduleOutcome RunSchedule(const CrashSchedule& schedule);

  // Enumerates schedules within `limits`, invoking `on_result` (may be
  // null) after each. Recovery sweeps are adaptive: each depth level is
  // swept from op 0 upward until a run underflows, which exactly bounds
  // that level. Subset-seed variants run at every swept point; only the
  // no-writeback chain is extended to deeper levels.
  StatusOr<ExploreStats> ExploreAll(
      const ExploreLimits& limits,
      const std::function<void(const ScheduleOutcome&)>& on_result);

 private:
  struct ForwardOutcome {
    bool crashed = false;
    uint64_t last_ok_flush = 0;
    uint64_t last_ok_commit = 0;
    uint64_t last_attempted_commit = 0;
    bool truncation_window = false;
    bool two_pc_window = false;
    bool quarantine_window = false;
    bool repair_window = false;
  };

  ForwardOutcome RunForward(CrashSimEnv& env);

  CheckerWorkload workload_;
  WorkloadOracle oracle_;
};

}  // namespace rvm

#endif  // RVM_CHECK_CRASH_EXPLORER_H_
