// Crash-recovery property tests.
//
// Strategy: run the deterministic scripted workload from src/check/ on a
// CrashSimEnv and crash it at *op-indexed* durable-prefix boundaries — the
// Nth whole pending operation that persists — via the CrashExplorer, which
// validates every recovered state against the whole-transaction oracle:
//
//   ATOMICITY   — the recovered region equals the model state after exactly
//                 k whole transactions, for some k (never a partial
//                 transaction).
//   PERMANENCE  — k covers every kFlush commit whose EndTransaction returned
//                 OK before the crash.
//   IDEMPOTENCE — repeating recovery reproduces the identical image.
//
// Op indices are exact, replayable boundaries; the byte-budget sweep below
// is kept for what op boundaries cannot express — a crash *inside* a single
// write during Sync, tearing the record mid-byte. A separate test crashes
// during recovery itself (§5.1.2: the status-block update is deferred to
// the end, so recovery reruns from scratch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/check/crash_explorer.h"
#include "src/os/crash_sim.h"
#include "src/rvm/log_device.h"
#include "src/rvm/rvm.h"
#include "src/util/random.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kRegionLen = 4 * kPage;
constexpr uint64_t kSlots = kRegionLen / sizeof(uint64_t);
constexpr uint64_t kLogSize = kLogDataStart + 16 * 1024;

CheckerWorkload MakeWorkload(bool use_incremental) {
  CheckerWorkload workload;  // defaults: small log, truncations happen
  workload.use_incremental_truncation = use_incremental;
  return workload;
}

struct WorkloadOutcome {
  // Highest 1-based txn index whose kFlush commit returned OK.
  uint64_t last_ok_flush = 0;
  // Highest 1-based txn index that committed (any mode) with OK status.
  uint64_t last_ok_commit = 0;
  bool crashed = false;
};

// Runs the scripted workload until completion or simulated crash. Used by
// the byte-budget tests; the op-indexed sweeps go through CrashExplorer.
WorkloadOutcome RunWorkload(CrashSimEnv& env, const CheckerWorkload& config) {
  WorkloadOracle oracle(config);
  WorkloadOutcome outcome;
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.runtime.use_incremental_truncation =
      config.use_incremental_truncation;
  options.runtime.truncation_threshold = config.truncation_threshold;
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    outcome.crashed = true;
    return outcome;
  }
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = config.region_len;
  if (!(*rvm)->Map(region).ok()) {
    outcome.crashed = true;
    return outcome;
  }
  auto* slots = static_cast<uint64_t*>(region.address);

  for (uint64_t i = 0; i < config.total_txns; ++i) {
    auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
    if (!tid.ok()) {
      outcome.crashed = true;
      return outcome;
    }
    bool txn_ok = true;
    for (const WorkloadOracle::SlotWrite& write : oracle.Script(i)) {
      if (!(*rvm)->Modify(*tid, &slots[write.slot], &write.value,
                          sizeof(uint64_t)).ok()) {
        txn_ok = false;
        break;
      }
    }
    if (!txn_ok) {
      outcome.crashed = true;
      return outcome;
    }
    bool flush = (i + 1) % config.flush_every == 0;
    Status commit = (*rvm)->EndTransaction(
        *tid, flush ? CommitMode::kFlush : CommitMode::kNoFlush);
    if (!commit.ok()) {
      outcome.crashed = true;
      return outcome;
    }
    outcome.last_ok_commit = i + 1;
    if (flush) {
      outcome.last_ok_flush = i + 1;
    }
  }
  // Clean completion: leave spooled txns unflushed on purpose (they may be
  // lost; atomicity must still hold).
  return outcome;
}

// Recovers after a crash and validates atomicity + permanence.
void ValidateAfterCrash(CrashSimEnv& env, const WorkloadOutcome& outcome,
                        const CheckerWorkload& config, uint64_t budget) {
  WorkloadOracle oracle(config);
  env.Recover();
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.runtime.use_incremental_truncation =
      config.use_incremental_truncation;
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << "recovery failed (budget=" << budget
                        << "): " << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = config.region_len;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* slots = static_cast<const uint64_t*>(region.address);

  std::optional<uint64_t> k = oracle.MatchPrefix(slots);
  ASSERT_TRUE(k.has_value())
      << "ATOMICITY violated at budget " << budget
      << ": recovered state matches no transaction prefix (marker="
      << slots[0] << ")";
  EXPECT_GE(*k, outcome.last_ok_flush)
      << "PERMANENCE violated at budget " << budget << ": flush-committed txn "
      << outcome.last_ok_flush << " lost (recovered to " << *k << ")";
  EXPECT_LE(*k, outcome.last_ok_commit == 0 ? config.total_txns
                                            : outcome.last_ok_commit)
      << "recovered MORE transactions than were ever committed";
}

// --------------------------------------------------------------------------
// Op-indexed crash sweep: every durable-prefix boundary of the workload,
// for both truncation policies, via the crash-schedule explorer.
// --------------------------------------------------------------------------

class CrashSweepTest : public ::testing::TestWithParam<bool> {};

TEST_P(CrashSweepTest, EveryDurablePrefixRecoversConsistently) {
  CrashExplorer explorer(MakeWorkload(/*use_incremental=*/GetParam()));
  ExploreLimits limits;
  limits.max_depth = 1;  // forward crashes only; depth 2+ in explorer tests
  auto stats = explorer.ExploreAll(limits, [](const ScheduleOutcome& outcome) {
    EXPECT_TRUE(outcome.pass)
        << outcome.schedule.ToString() << ": " << outcome.detail;
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed, 0u);
  // One schedule per op boundary plus fwd=end; a vacuous sweep means the
  // workload persisted almost nothing.
  EXPECT_GE(stats->schedules_run, 40u);
  EXPECT_GT(stats->truncation_window_schedules, 0u)
      << "no crash landed inside a truncation; workload mis-scaled";
}

INSTANTIATE_TEST_SUITE_P(Policies, CrashSweepTest, ::testing::Bool(),
                         [](const auto& suite_info) {
                           return std::string(suite_info.param ? "Incremental"
                                                               : "Epoch");
                         });

TEST(CrashModelSelfTest, MatcherRejectsTornStates) {
  // Meta-test: the oracle matcher must actually discriminate. A state that
  // applies only *part* of transaction k's writes must match no prefix.
  WorkloadOracle oracle(MakeWorkload(true));
  ASSERT_EQ(oracle.slots(), kSlots);
  std::vector<uint64_t> state = oracle.StateAfter(10);
  std::vector<WorkloadOracle::SlotWrite> partial = oracle.Script(10);
  ASSERT_GE(partial.size(), 3u);
  // Apply the marker and one write, but not the rest: a torn transaction.
  state[partial[0].slot] = partial[0].value;
  state[partial[1].slot] = partial[1].value;
  EXPECT_FALSE(oracle.MatchPrefix(state.data()).has_value());
  // Completing the transaction makes it match again.
  for (const WorkloadOracle::SlotWrite& write : partial) {
    state[write.slot] = write.value;
  }
  auto k = oracle.MatchPrefix(state.data());
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(*k, 11u);
}

// --------------------------------------------------------------------------
// Byte-budget sweep: the one crash family op indices cannot express — power
// failing *inside* a single write during Sync, tearing the record mid-byte.
// --------------------------------------------------------------------------

TEST(CrashByteBudgetTest, MidSyncTornWritesRecoverConsistently) {
  CheckerWorkload config = MakeWorkload(true);

  // First, measure the total bytes a full run persists, to scale the sweep.
  uint64_t full_bytes = 0;
  {
    CrashSimEnv env;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
    WorkloadOutcome outcome = RunWorkload(env, config);
    ASSERT_FALSE(outcome.crashed);
    full_bytes = env.bytes_persisted();
  }
  ASSERT_GT(full_bytes, 0u);

  // Sweep ~24 crash points spread over the run, jittered so the budgets land
  // at odd offsets inside individual writes (torn records).
  Xoshiro256 rng(7);
  int crashes_exercised = 0;
  for (int point = 0; point < 24; ++point) {
    uint64_t budget = full_bytes * (point + 1) / 25 + rng.Below(97);
    CrashSimEnv env;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
    uint64_t setup_bytes = env.bytes_persisted();
    env.SetPersistBudget(budget > setup_bytes ? budget - setup_bytes : 0);

    WorkloadOutcome outcome = RunWorkload(env, config);
    if (!outcome.crashed) {
      continue;  // budget outlasted the workload
    }
    if (!env.crashed()) {
      env.Crash();  // process died with budget remaining: drop volatile state
    }
    ++crashes_exercised;
    ValidateAfterCrash(env, outcome, config, budget);
  }
  EXPECT_GE(crashes_exercised, 16)
      << "sweep barely crashed anything; budgets mis-scaled, test is vacuous";
}

TEST(CrashRecoveryTest, CrashWithBudgetLeftLosesOnlyUnflushed) {
  // A plain process kill (no fault armed): everything fsynced must survive,
  // spooled no-flush txns may vanish, atomicity holds.
  CheckerWorkload config = MakeWorkload(true);
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
  WorkloadOutcome outcome = RunWorkload(env, config);
  ASSERT_FALSE(outcome.crashed);
  env.Crash();
  ValidateAfterCrash(env, outcome, config, UINT64_MAX);
}

TEST(CrashRecoveryTest, RecoveryItselfIsIdempotentUnderCrashes) {
  // Crash the recovery pass at every op boundary (0, 1, 2, ...) until it
  // finally completes; the final state must satisfy the same properties.
  // This is the op-indexed rendering of §5.1.2's claim that a crash during
  // recovery is handled by simply repeating recovery.
  CheckerWorkload config = MakeWorkload(true);
  config.total_txns = 30;
  config.flush_every = 3;

  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
  WorkloadOutcome outcome = RunWorkload(env, config);
  ASSERT_FALSE(outcome.crashed);
  env.Crash();

  int crashes_during_recovery = 0;
  for (uint64_t rec_op = 0;; ++rec_op) {
    env.Recover();
    env.SetCrashAtOp(rec_op);
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    auto rvm = RvmInstance::Initialize(options);
    if (rvm.ok()) {
      // Recovery persisted fewer than rec_op ops: the sweep is exhausted.
      env.SetCrashAtOp(UINT64_MAX);
      break;
    }
    ASSERT_TRUE(env.crashed())
        << "recovery failed without a crash at rec op " << rec_op << ": "
        << rvm.status().ToString();
    ++crashes_during_recovery;
    ASSERT_LT(crashes_during_recovery, 10000) << "recovery never completed";
  }
  EXPECT_GT(crashes_during_recovery, 0)
      << "recovery persisted nothing; op sweep is vacuous";
  env.Crash();
  ValidateAfterCrash(env, outcome, config, 0);
}

TEST(CrashRecoveryTest, TornFinalRecordIsDiscarded) {
  // Force a crash budget that lands inside the final flush's log write: the
  // torn record must be dropped, the previous state preserved.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  {
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok());
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = kRegionLen;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* slots = static_cast<uint64_t*>(region.address);

    Transaction first(**rvm);
    uint64_t value = 11;
    ASSERT_TRUE((*rvm)->Modify(first.id(), &slots[1], &value, 8).ok());
    ASSERT_TRUE(first.Commit(CommitMode::kFlush).ok());

    // Allow only 100 more durable bytes: the next commit's record (~2 KB)
    // tears.
    env.SetPersistBudget(100);
    Transaction second(**rvm);
    std::vector<uint64_t> big(256, 22);
    ASSERT_TRUE((*rvm)->SetRange(second.id(), &slots[2], big.size() * 8).ok());
    std::memcpy(&slots[2], big.data(), big.size() * 8);
    EXPECT_FALSE(second.Commit(CommitMode::kFlush).ok());
  }
  if (!env.crashed()) {
    env.Crash();
  }
  env.Recover();

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* slots = static_cast<const uint64_t*>(region.address);
  EXPECT_EQ(slots[1], 11u) << "first (durable) transaction lost";
  EXPECT_EQ(slots[2], 0u) << "torn second transaction partially applied";
}

// ---------------------------------------------------------------------------
// Torn tail vs mid-log corruption (fail-stop on damaged committed data)
// ---------------------------------------------------------------------------

// XORs one byte of `path` in place through the env.
void FlipByte(Env& env, const std::string& path, uint64_t offset) {
  auto file = env.Open(path, OpenMode::kReadWrite);
  ASSERT_TRUE(file.ok());
  uint8_t byte = 0;
  auto n = (*file)->ReadAt(offset, std::span<uint8_t>(&byte, 1));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 1u);
  byte ^= 0xFF;
  ASSERT_TRUE((*file)->WriteAt(offset, std::span<const uint8_t>(&byte, 1)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
}

// Commits `txns` flush transactions (slot i+1 := 100+i) and terminates
// cleanly, leaving the records live in the log for the next Initialize.
void WriteCommittedLog(CrashSimEnv& env, uint64_t txns) {
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok());
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  auto* slots = static_cast<uint64_t*>(region.address);
  for (uint64_t i = 0; i < txns; ++i) {
    Transaction txn(**rvm);
    uint64_t value = 100 + i;
    ASSERT_TRUE((*rvm)->Modify(txn.id(), &slots[i + 1], &value, 8).ok());
    ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
  }
}

// Offsets of the live transaction records, oldest first.
std::vector<uint64_t> LiveTransactionOffsets(CrashSimEnv& env) {
  std::vector<uint64_t> result;
  auto log = LogDevice::Open(&env, "/log");
  EXPECT_TRUE(log.ok());
  if (!log.ok()) return result;
  LogDevice::LiveRecords walk(**log);  // newest first
  for (;;) {
    auto record = walk.Next();
    EXPECT_TRUE(record.ok());
    if (!record.ok() || *record == nullptr) break;
    if ((*record)->parsed.header.type == RecordType::kTransaction) {
      result.push_back((*record)->offset);
    }
  }
  std::reverse(result.begin(), result.end());
  return result;
}

TEST(LogCorruptionTest, FlippedByteInCommittedRecordFailsRecovery) {
  // One flipped byte inside a committed, pre-tail record: recovery must
  // refuse to run (kCorruption), never silently truncate committed data.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  WriteCommittedLog(env, 5);
  std::vector<uint64_t> records = LiveTransactionOffsets(env);
  ASSERT_EQ(records.size(), 5u);
  // Flip a payload byte of the middle record; its CRC no longer matches.
  FlipByte(env, "/log", records[2] + kRecordHeaderSize + 4);

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_FALSE(rvm.ok()) << "recovery accepted a corrupted committed record";
  EXPECT_EQ(rvm.status().code(), ErrorCode::kCorruption)
      << rvm.status().ToString();
}

TEST(LogCorruptionTest, GarbagePastTheTailRecoversCleanly) {
  // Control: the same byte-flipping applied beyond the tail is indistin-
  // guishable from a torn final append and must not block recovery.
  CrashSimEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogSize).ok());
  WriteCommittedLog(env, 5);
  uint64_t tail;
  {
    auto log = LogDevice::Open(&env, "/log");
    ASSERT_TRUE(log.ok());
    tail = (*log)->status().tail;
  }
  for (uint64_t i = 0; i < 64; ++i) {
    FlipByte(env, "/log", tail + i * 7);
  }

  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kRegionLen;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  const auto* slots = static_cast<const uint64_t*>(region.address);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(slots[i + 1], 100 + i) << "committed txn " << i << " lost";
  }
}

TEST(LogCorruptionTest, TailScanDistinguishesTornTailFromCorruption) {
  // Records forced after the last status write are discovered by forward
  // scanning. An unreadable record there is a torn tail (truncate) only if
  // no valid successor exists; a durable successor proves it was committed.
  CrashSimEnv env;
  ASSERT_TRUE(LogDevice::Create(&env, "/log", kLogSize, false).ok());
  std::vector<uint8_t> payload(64, 0xAB);
  RangeView range;
  range.segment = 1;
  range.offset = 0;
  range.data = payload;

  for (bool corrupt_last : {false, true}) {
    uint64_t first, second;
    {
      auto log = LogDevice::Open(&env, "/log");
      ASSERT_TRUE(log.ok());
      (*log)->MarkEmpty();
      ASSERT_TRUE((*log)->WriteStatus().ok());  // durable tail: before both
      auto a = (*log)->AppendTransaction(1, std::span<const RangeView>(&range, 1));
      auto b = (*log)->AppendTransaction(2, std::span<const RangeView>(&range, 1));
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_TRUE((*log)->Sync().ok());  // forced, but status not rewritten
      first = *a;
      second = *b;
    }
    FlipByte(env, "/log", (corrupt_last ? second : first) + kRecordHeaderSize + 4);

    auto log = LogDevice::Open(&env, "/log");
    ASSERT_TRUE(log.ok());
    auto discovered = (*log)->ExtendTailForward();
    if (corrupt_last) {
      // No valid record past the damage: a torn final append, dropped.
      ASSERT_TRUE(discovered.ok()) << discovered.status().ToString();
      EXPECT_EQ(*discovered, 1u);
    } else {
      // Record 2 is durable past the damage, so record 1 was durable too:
      // committed data is unreadable. Fail stop.
      ASSERT_FALSE(discovered.ok());
      EXPECT_EQ(discovered.status().code(), ErrorCode::kCorruption)
          << discovered.status().ToString();
    }
  }
}

TEST(CrashRecoveryTest, RandomWritebackAtCrashStillAtomic) {
  // flush_on_crash persists a random subset prefix of pending writes at the
  // moment of failure (page cache racing power loss).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CrashSimEnv::Options env_options;
    env_options.flush_on_crash = true;
    env_options.torn_writes = true;
    env_options.seed = seed;
    CrashSimEnv env(env_options);
    CheckerWorkload config = MakeWorkload(true);
    config.total_txns = 20;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", config.log_size).ok());
    WorkloadOutcome outcome = RunWorkload(env, config);
    ASSERT_FALSE(outcome.crashed);
    env.Crash();  // triggers randomized writeback
    ValidateAfterCrash(env, outcome, config, seed);
  }
}

}  // namespace
}  // namespace rvm
