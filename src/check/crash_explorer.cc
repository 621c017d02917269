#include "src/check/crash_explorer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "src/os/fault_env.h"
#include "src/rvm/rvm.h"

namespace rvm {
namespace {

constexpr char kLogPath[] = "/log";
constexpr char kSegPath[] = "/seg";

// A crash that interrupted a truncation shows an unbalanced window counter.
bool InTruncationWindow(const RvmStatistics& stats) {
  return stats.truncations_started > stats.truncations_completed;
}

// A crash that interrupted a cross-shard 2PC (prepares appended, no verdict).
bool InTwoPcWindow(const RvmStatistics& stats) {
  return stats.cross_shard_commits_started > stats.cross_shard_commits_decided;
}

// A crash after a shard quarantine / inside an online repair (DESIGN.md §13).
bool InQuarantineWindow(const RvmStatistics& stats) {
  return stats.shard_quarantines > 0;
}

bool InRepairWindow(const RvmStatistics& stats) {
  return stats.shard_repairs_started > stats.shard_repairs_completed;
}

RvmOptions MakeOptions(CrashSimEnv& env, const CheckerWorkload& workload) {
  RvmOptions options;
  options.env = &env;
  options.log_path = kLogPath;
  options.log_shards = workload.log_shards;
  options.runtime.use_incremental_truncation =
      workload.use_incremental_truncation;
  options.runtime.truncation_threshold = workload.truncation_threshold;
  options.span_sample_rate = workload.span_sample_rate;
  options.slow_commit_threshold_us = workload.slow_commit_threshold_us;
  return options;
}

// Region r's segment path: the single-region workload keeps the exact
// historic path so its schedules replay bit-identically.
std::string SegPath(const CheckerWorkload& workload, uint64_t r) {
  return workload.regions == 1 ? kSegPath : kSegPath + std::to_string(r);
}

// The instance's event ring as rvm-spans-v1 JSONL, for a failing outcome.
std::string RingJsonl(const RvmInstance& rvm) {
  StatusOr<std::string> jsonl = rvm.DumpSpansJsonl();
  return jsonl.ok() ? *jsonl : std::string();
}

// Maps every workload region and returns the bases, or nullopt on the first
// failure (a crash during Map).
std::optional<std::vector<uint64_t*>> MapAllRegions(
    RvmInstance& rvm, const CheckerWorkload& workload) {
  std::vector<uint64_t*> bases;
  bases.reserve(workload.regions);
  for (uint64_t r = 0; r < workload.regions; ++r) {
    RegionDescriptor region;
    region.segment_path = SegPath(workload, r);
    region.length = workload.region_len;
    if (!rvm.Map(region).ok()) {
      return std::nullopt;
    }
    bases.push_back(static_cast<uint64_t*>(region.address));
  }
  return bases;
}

}  // namespace

CrashExplorer::CrashExplorer(const CheckerWorkload& workload)
    : workload_(workload), oracle_(workload) {}

CrashExplorer::ForwardOutcome CrashExplorer::RunForward(CrashSimEnv& env) {
  ForwardOutcome outcome;
  // Fault-domain sweep: run the whole workload through a fault-injection
  // decorator so one shard's log can die mid-run. The decorator passes every
  // operation to the CrashSimEnv beneath, so op-indexed crash points keep
  // their meaning (a faulted WriteAt never reaches the base env and is not a
  // persist boundary — exactly like a write the device swallowed).
  const bool faulting =
      workload_.fault_shard != CheckerWorkload::kNoFaultShard &&
      workload_.log_shards > 1;
  FaultInjectionEnv fault_env(&env);
  RvmOptions options = MakeOptions(env, workload_);
  if (faulting) {
    options.env = &fault_env;
  }
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    outcome.crashed = true;
    return outcome;
  }
  auto note_windows = [&]() {
    const RvmStatistics& stats = (*rvm)->statistics();
    outcome.truncation_window = InTruncationWindow(stats);
    outcome.two_pc_window = InTwoPcWindow(stats);
    outcome.quarantine_window = InQuarantineWindow(stats);
    outcome.repair_window = InRepairWindow(stats);
  };
  auto crash_exit = [&]() {
    outcome.crashed = true;
    note_windows();
    return outcome;
  };
  std::optional<std::vector<uint64_t*>> bases =
      MapAllRegions(**rvm, workload_);
  if (!bases.has_value()) {
    return crash_exit();
  }
  const uint64_t region_slots = workload_.region_len / sizeof(uint64_t);

  bool fault_armed = false;
  for (uint64_t i = 0; i < workload_.total_txns; ++i) {
    if (faulting && i == workload_.fault_at_txn) {
      // The shard's device goes sticky-dead just before this transaction:
      // the first commit that touches the stripe exhausts the retry budget
      // and quarantines it.
      FaultSpec spec;
      spec.op = FaultOp::kWriteAt;
      spec.sticky = true;
      spec.path_substring = ShardLogPath(kLogPath, workload_.fault_shard);
      fault_env.InjectFault(spec);
      fault_armed = true;
    }
    auto run_txn = [&]() -> Status {
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
      RVM_RETURN_IF_ERROR(tid.status());
      for (const WorkloadOracle::SlotWrite& write : oracle_.Script(i)) {
        uint64_t* slot =
            (*bases)[write.slot / region_slots] + write.slot % region_slots;
        RVM_RETURN_IF_ERROR(
            (*rvm)->Modify(*tid, slot, &write.value, sizeof(uint64_t)));
      }
      bool flush =
          workload_.flush_every != 0 && (i + 1) % workload_.flush_every == 0;
      // The commit record exists (pending or durable) from this point on, so
      // a crash may legally recover txn i+1 even though no ack was returned.
      outcome.last_attempted_commit = i + 1;
      RVM_RETURN_IF_ERROR((*rvm)->EndTransaction(
          *tid, flush ? CommitMode::kFlush : CommitMode::kNoFlush));
      outcome.last_ok_commit = i + 1;
      if (flush) {
        outcome.last_ok_flush = i + 1;
      }
      return OkStatus();
    };
    Status txn_status = run_txn();
    if (!txn_status.ok() && fault_armed && !env.crashed() &&
        (*rvm)->shard_health(workload_.fault_shard) ==
            RvmInstance::ShardHealth::kQuarantined) {
      // The sticky fault quarantined its shard (restore-mode commits roll
      // their VM changes back, so the image is consistent). Heal the device,
      // repair the shard online, and retry the failed transaction once —
      // crash points inside RepairShard land in the repair window.
      fault_env.ClearFaults();
      fault_armed = false;
      Status repaired = (*rvm)->RepairShard(workload_.fault_shard);
      if (!repaired.ok()) {
        return crash_exit();
      }
      txn_status = run_txn();
    }
    if (!txn_status.ok()) {
      return crash_exit();
    }
  }
  // Clean completion, including teardown (Terminate flushes the spool and
  // writes a clean status block) — the armed crash may still fire here.
  rvm->reset();
  if (env.crashed()) {
    outcome.crashed = true;
  }
  return outcome;
}

StatusOr<uint64_t> CrashExplorer::BaselineOps() {
  CrashSimEnv env;
  RVM_RETURN_IF_ERROR(RvmInstance::CreateLog(&env, kLogPath,
                                             workload_.log_size,
                                             /*overwrite=*/false,
                                             workload_.log_shards));
  uint64_t base = env.ops_persisted();
  ForwardOutcome outcome = RunForward(env);
  if (outcome.crashed) {
    return Internal("baseline workload crashed with no fault armed");
  }
  return env.ops_persisted() - base;
}

ScheduleOutcome CrashExplorer::RunSchedule(const CrashSchedule& schedule) {
  ScheduleOutcome out;
  out.schedule = schedule;
  CrashSimEnv env;
  if (!RvmInstance::CreateLog(&env, kLogPath, workload_.log_size,
                              /*overwrite=*/false, workload_.log_shards)
           .ok()) {
    out.detail = "log creation failed";
    return out;
  }

  // --- forward phase ---
  if (schedule.forward.op != kCrashAtEnd) {
    env.SetCrashAtOp(schedule.forward.op);
  }
  ForwardOutcome fwd = RunForward(env);
  out.last_ok_flush = fwd.last_ok_flush;
  out.last_ok_commit = fwd.last_ok_commit;
  out.last_attempted_commit = fwd.last_attempted_commit;
  out.truncation_window = fwd.truncation_window;
  out.two_pc_window = fwd.two_pc_window;
  out.quarantine_window = fwd.quarantine_window;
  out.repair_window = fwd.repair_window;
  if (!fwd.crashed && schedule.forward.op != kCrashAtEnd) {
    out.forward_underflow = true;
  }
  bool subset_used = schedule.forward.subset_seed != 0;
  if (subset_used) {
    env.Crash(CrashSimEnv::Writeback::kSubset, schedule.forward.subset_seed);
  } else if (!env.crashed()) {
    env.Crash();
  }

  // --- recovery phases (crashes during recovery) ---
  std::unique_ptr<RvmInstance> recovered;
  for (size_t i = 0; i < schedule.recovery.size(); ++i) {
    const CrashPoint& rec = schedule.recovery[i];
    env.Recover();
    env.SetCrashAtOp(rec.op);
    auto attempt = RvmInstance::Initialize(MakeOptions(env, workload_));
    if (attempt.ok()) {
      // Recovery finished before the armed op: underflow. Disarm and
      // validate with this instance; deeper points cannot fire either.
      env.SetCrashAtOp(kCrashAtEnd);
      out.underflow_rec = static_cast<int>(i);
      recovered = std::move(*attempt);
      break;
    }
    if (!env.crashed()) {
      // Recovery refused without a simulated power failure.
      if (attempt.status().code() == ErrorCode::kCorruption && subset_used) {
        out.fail_stop = true;
        out.pass = true;
        return out;
      }
      out.detail = "recovery attempt " + std::to_string(i) +
                   " failed without crashing: " + attempt.status().ToString();
      return out;
    }
    if (rec.subset_seed != 0) {
      env.Crash(CrashSimEnv::Writeback::kSubset, rec.subset_seed);
      subset_used = true;
    }
  }

  // --- final, unharmed recovery ---
  if (recovered == nullptr) {
    env.Recover();
    auto final_rvm = RvmInstance::Initialize(MakeOptions(env, workload_));
    if (!final_rvm.ok()) {
      if (final_rvm.status().code() == ErrorCode::kCorruption && subset_used) {
        out.fail_stop = true;
        out.pass = true;
        return out;
      }
      out.detail = "final recovery failed: " + final_rvm.status().ToString();
      return out;
    }
    recovered = std::move(*final_rvm);
  }

  // Every explored schedule ends with a full scrub (DESIGN.md §14): after a
  // completed recovery, every page with a recorded checksum must match its
  // segment file — the sidecar ordering argument says a crash can leave
  // checksum entries stale only while live log records still cover those
  // pages, and recovery just rewrote and re-checksummed them.
  auto scrub_all = [&](RvmInstance& rvm, const char* when) -> bool {
    RvmInstance::ScrubReport total;
    for (uint32_t shard = 0; shard < workload_.log_shards; ++shard) {
      auto report = rvm.ScrubShard(shard);
      if (!report.ok()) {
        out.detail = std::string("SCRUB: ") + when +
                     " scrub failed: " + report.status().ToString();
        return false;
      }
      total.Merge(*report);
    }
    if (total.mismatches != 0) {
      out.detail = std::string("SCRUB: ") + when + " scrub found " +
                   std::to_string(total.mismatches) +
                   " checksum mismatch(es) across " +
                   std::to_string(total.pages_scrubbed) + " pages";
      return false;
    }
    return true;
  };

  // --- oracle validation ---
  std::optional<std::vector<uint64_t*>> bases =
      MapAllRegions(*recovered, workload_);
  if (!bases.has_value()) {
    out.detail = "map after recovery failed";
    out.trace_jsonl = RingJsonl(*recovered);
    return out;
  }
  const uint64_t region_slots = workload_.region_len / sizeof(uint64_t);
  std::vector<uint64_t> image;
  image.reserve(oracle_.slots());
  for (uint64_t* base : *bases) {
    image.insert(image.end(), base, base + region_slots);
  }
  std::optional<uint64_t> k = oracle_.MatchPrefix(image.data());
  if (!k.has_value()) {
    out.detail = "ATOMICITY: recovered state matches no transaction prefix "
                 "(marker=" +
                 std::to_string(image[0]) + ")";
    out.trace_jsonl = RingJsonl(*recovered);
    return out;
  }
  out.recovered_prefix = *k;
  if (*k < fwd.last_ok_flush) {
    out.detail = "PERMANENCE: flush-committed txn " +
                 std::to_string(fwd.last_ok_flush) +
                 " lost (recovered to " + std::to_string(*k) + ")";
    out.trace_jsonl = RingJsonl(*recovered);
    return out;
  }
  // An attempted-but-unacknowledged commit may land either way, so the
  // upper bound is the last EndTransaction *invoked*, not the last acked.
  // In-order writeback can never recover past last_ok_commit (the records
  // persist in append order), but subset writeback legitimately can.
  uint64_t upper = std::max(fwd.last_ok_commit, fwd.last_attempted_commit);
  if (*k > upper) {
    out.detail = "recovered txn " + std::to_string(*k) +
                 " whose commit was never attempted (last attempted " +
                 std::to_string(upper) + ")";
    out.trace_jsonl = RingJsonl(*recovered);
    return out;
  }
  if (!scrub_all(*recovered, "post-recovery")) {
    out.trace_jsonl = RingJsonl(*recovered);
    return out;
  }

  // --- idempotence: kill again without a clean shutdown, recover, compare
  // (§5.1.2: repeating recovery must be harmless) ---
  env.Crash();
  recovered.reset();
  env.Recover();
  auto again = RvmInstance::Initialize(MakeOptions(env, workload_));
  if (!again.ok()) {
    out.detail =
        "IDEMPOTENCE: re-recovery failed: " + again.status().ToString();
    return out;
  }
  std::optional<std::vector<uint64_t*>> bases2 =
      MapAllRegions(**again, workload_);
  if (!bases2.has_value()) {
    out.detail = "IDEMPOTENCE: re-map failed";
    out.trace_jsonl = RingJsonl(**again);
    return out;
  }
  for (uint64_t r = 0; r < workload_.regions; ++r) {
    if (std::memcmp((*bases2)[r], image.data() + r * region_slots,
                    region_slots * sizeof(uint64_t)) != 0) {
      out.detail = "IDEMPOTENCE: repeating recovery changed the image";
      out.trace_jsonl = RingJsonl(**again);
      return out;
    }
  }
  if (!scrub_all(**again, "post-idempotence")) {
    out.trace_jsonl = RingJsonl(**again);
    return out;
  }
  out.pass = true;
  return out;
}

StatusOr<ExploreStats> CrashExplorer::ExploreAll(
    const ExploreLimits& limits,
    const std::function<void(const ScheduleOutcome&)>& on_result) {
  ExploreStats stats;
  RVM_ASSIGN_OR_RETURN(stats.baseline_ops, BaselineOps());
  const uint64_t fwd_stride = std::max<uint64_t>(1, limits.forward_stride);
  const uint64_t rec_stride = std::max<uint64_t>(1, limits.recovery_stride);

  auto out_of_budget = [&]() {
    if (limits.max_schedules != 0 &&
        stats.schedules_run >= limits.max_schedules) {
      stats.budget_exhausted = true;
      return true;
    }
    return false;
  };
  auto run_one = [&](const CrashSchedule& schedule) {
    ScheduleOutcome outcome = RunSchedule(schedule);
    ++stats.schedules_run;
    if (outcome.pass) {
      ++stats.passed;
    } else {
      ++stats.failed;
    }
    if (outcome.fail_stop) {
      ++stats.fail_stops;
    }
    if (outcome.truncation_window) {
      ++stats.truncation_window_schedules;
    }
    if (outcome.two_pc_window) {
      ++stats.two_pc_window_schedules;
    }
    if (outcome.quarantine_window) {
      ++stats.quarantine_window_schedules;
    }
    if (outcome.repair_window) {
      ++stats.repair_window_schedules;
    }
    stats.max_depth_reached = std::max<uint64_t>(
        stats.max_depth_reached, 1 + schedule.recovery.size());
    if (on_result) {
      on_result(outcome);
    }
    return outcome;
  };

  // Sweeps recovery crash points at one depth, recursing while crashes_left
  // allows. Underflow (recovery completing before the armed op) bounds each
  // sweep exactly — no op count for recovery needs to be known in advance.
  std::function<void(const CrashSchedule&, size_t)> extend =
      [&](const CrashSchedule& base, size_t crashes_left) {
        if (crashes_left == 0) {
          return;
        }
        for (uint64_t r = 0;; r += rec_stride) {
          if (out_of_budget()) {
            return;
          }
          CrashSchedule schedule = base;
          schedule.recovery.push_back({r, 0});
          ScheduleOutcome outcome = run_one(schedule);
          if (outcome.underflow_rec ==
              static_cast<int>(schedule.recovery.size()) - 1) {
            return;  // every larger op index underflows too
          }
          for (uint64_t seed : limits.recovery_subset_seeds) {
            if (out_of_budget()) {
              return;
            }
            CrashSchedule variant = base;
            variant.recovery.push_back({r, seed});
            run_one(variant);
          }
          extend(schedule, crashes_left - 1);
        }
      };

  for (uint64_t f = 0;; f += fwd_stride) {
    if (out_of_budget()) {
      break;
    }
    const bool is_end = f >= stats.baseline_ops;
    CrashSchedule schedule;
    schedule.forward = {is_end ? kCrashAtEnd : f, 0};
    ScheduleOutcome outcome = run_one(schedule);
    if (!is_end) {
      for (uint64_t seed : limits.forward_subset_seeds) {
        if (out_of_budget()) {
          break;
        }
        CrashSchedule variant;
        variant.forward = {f, seed};
        run_one(variant);
      }
      if (limits.max_depth > 1 && !outcome.forward_underflow) {
        extend(schedule, limits.max_depth - 1);
      }
    }
    if (is_end) {
      break;
    }
  }
  return stats;
}

}  // namespace rvm
