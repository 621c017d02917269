// Tests for log truncation: epoch truncation (Fig. 6), incremental
// truncation (Fig. 7), the blocked-page fallback, and log-full handling.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "src/os/crash_sim.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/util/random.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;

class TruncationTest : public ::testing::Test {
 protected:
  // Small log so a handful of transactions crosses the threshold.
  static constexpr uint64_t kLogSize = kLogDataStart + 64 * 1024;

  void Open(bool incremental) {
    rvm_.reset();
    if (!env_.Exists("/log")) {
      ASSERT_TRUE(RvmInstance::CreateLog(&env_, "/log", kLogSize).ok());
    }
    RvmOptions options;
    options.env = &env_;
    options.log_path = "/log";
    options.runtime.use_incremental_truncation = incremental;
    options.runtime.truncation_threshold = 0.5;
    options.runtime.truncation_target = 0.25;
    auto opened = RvmInstance::Initialize(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    rvm_ = std::move(*opened);
  }

  uint8_t* MapRegion(uint64_t length = 8 * kPage) {
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = length;
    Status status = rvm_->Map(region);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return static_cast<uint8_t*>(region.address);
  }

  // One committed transaction writing `bytes` at `offset`.
  void CommitWrite(uint8_t* base, uint64_t offset, uint64_t bytes,
                   uint8_t fill, CommitMode mode = CommitMode::kFlush) {
    Transaction txn(*rvm_);
    ASSERT_TRUE(txn.SetRange(base + offset, bytes).ok());
    std::memset(base + offset, fill, bytes);
    ASSERT_TRUE(txn.Commit(mode).ok());
  }

  MemEnv env_;
  std::unique_ptr<RvmInstance> rvm_;
};

TEST_F(TruncationTest, ExplicitTruncateEmptiesLog) {
  Open(/*incremental=*/false);
  uint8_t* base = MapRegion();
  CommitWrite(base, 0, 1000, 0xAA);
  EXPECT_GT(rvm_->log_bytes_in_use(), 0u);
  ASSERT_TRUE(rvm_->Truncate().ok());
  EXPECT_EQ(rvm_->log_bytes_in_use(), 0u);
  EXPECT_EQ(rvm_->statistics().epoch_truncations, 1u);
}

TEST_F(TruncationTest, TruncateAppliesChangesToSegment) {
  Open(/*incremental=*/false);
  uint8_t* base = MapRegion();
  CommitWrite(base, 100, 50, 0xBB);
  ASSERT_TRUE(rvm_->Truncate().ok());
  // The segment file itself must now carry the data (read it directly).
  auto file = env_.Open("/seg", OpenMode::kReadOnly);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> out(50);
  ASSERT_EQ((*file)->ReadAt(100, out).value(), 50u);
  for (uint8_t byte : out) {
    ASSERT_EQ(byte, 0xBB);
  }
}

TEST_F(TruncationTest, TruncateFlushesSpoolFirst) {
  Open(/*incremental=*/false);
  uint8_t* base = MapRegion();
  CommitWrite(base, 0, 64, 0xCC, CommitMode::kNoFlush);
  ASSERT_TRUE(rvm_->Truncate().ok());
  EXPECT_EQ(rvm_->spooled_bytes(), 0u);
  auto file = env_.Open("/seg", OpenMode::kReadOnly);
  std::vector<uint8_t> out(64);
  ASSERT_EQ((*file)->ReadAt(0, out).value(), 64u);
  EXPECT_EQ(out[0], 0xCC);
}

TEST_F(TruncationTest, EpochTruncationTriggersAutomatically) {
  Open(/*incremental=*/false);
  uint8_t* base = MapRegion();
  // Each committed transaction logs ~2 KB; the 64 KB log with a 50%
  // threshold must truncate within ~16 commits.
  for (int i = 0; i < 40; ++i) {
    CommitWrite(base, (i % 8) * kPage, 2048, static_cast<uint8_t>(i));
  }
  EXPECT_GT(rvm_->statistics().epoch_truncations, 0u);
  EXPECT_LE(rvm_->log_bytes_in_use(), rvm_->log_capacity());
}

TEST_F(TruncationTest, IncrementalTruncationAdvancesHeadWithoutEpoch) {
  Open(/*incremental=*/true);
  uint8_t* base = MapRegion();
  for (int i = 0; i < 40; ++i) {
    CommitWrite(base, (i % 8) * kPage, 2048, static_cast<uint8_t>(i));
  }
  EXPECT_GT(rvm_->statistics().incremental_steps, 0u);
  EXPECT_EQ(rvm_->statistics().epoch_truncations, 0u)
      << "unblocked workload should never need the epoch fallback";
}

TEST_F(TruncationTest, IncrementalWritebackMatchesMemory) {
  Open(/*incremental=*/true);
  uint8_t* base = MapRegion();
  for (int i = 0; i < 40; ++i) {
    CommitWrite(base, (i % 8) * kPage, 2048, static_cast<uint8_t>(i + 1));
  }
  ASSERT_GT(rvm_->statistics().incremental_pages_written, 0u);
  // Everything the segment file claims must match the in-memory region for
  // bytes that were written back (we simply check full consistency after an
  // explicit truncate, which applies the remainder).
  ASSERT_TRUE(rvm_->Truncate().ok());
  auto file = env_.Open("/seg", OpenMode::kReadOnly);
  std::vector<uint8_t> out(8 * kPage);
  ASSERT_EQ((*file)->ReadAt(0, out).value(), out.size());
  EXPECT_EQ(std::memcmp(out.data(), base, out.size()), 0);
}

TEST_F(TruncationTest, BlockedIncrementalFallsBackToEpochWhenCritical) {
  Open(/*incremental=*/true);
  RuntimeOptions runtime = rvm_->GetOptions();
  runtime.truncation_threshold = 0.30;
  runtime.epoch_critical_fraction = 0.60;
  rvm_->SetOptions(runtime);
  uint8_t* base = MapRegion();

  // A long-running transaction pins page 0 (uncommitted refs), blocking the
  // queue head forever (§5.1.2's long-running transaction scenario).
  auto blocker = rvm_->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(blocker.ok());
  // First commit something touching page 0 so the blocked page heads the
  // queue.
  CommitWrite(base, 0, 512, 0xEE);
  ASSERT_TRUE(rvm_->SetRange(*blocker, base, 16).ok());

  // Now hammer the log until it passes the critical fraction.
  for (int i = 0; i < 60; ++i) {
    CommitWrite(base, kPage + (i % 7) * kPage, 2048, static_cast<uint8_t>(i));
  }
  EXPECT_GT(rvm_->statistics().epoch_truncations, 0u)
      << "critical log space with a blocked head page must revert to epoch";
  ASSERT_TRUE(rvm_->AbortTransaction(*blocker).ok());
}

TEST_F(TruncationTest, UnflushedPagesBlockIncrementalWriteback) {
  // A no-flush commit's pages must not be written to the segment before the
  // log records are durable: crash could tear the transaction.
  Open(/*incremental=*/true);
  uint8_t* base = MapRegion();
  CommitWrite(base, 0, 128, 0x11, CommitMode::kNoFlush);
  // Force incremental truncation attempts via flush-mode traffic on other
  // pages.
  for (int i = 0; i < 40; ++i) {
    CommitWrite(base, kPage + (i % 7) * kPage, 2048, static_cast<uint8_t>(i));
  }
  // The segment must not contain 0x11 at offset 0 unless the spool was
  // flushed (auto-flush may have happened if spool exceeded its max; check
  // the invariant conditionally).
  if (rvm_->spooled_bytes() > 0) {
    auto file = env_.Open("/seg", OpenMode::kReadOnly);
    std::vector<uint8_t> out(1);
    ASSERT_EQ((*file)->ReadAt(0, out).value(), 1u);
    EXPECT_NE(out[0], 0x11)
        << "unflushed no-flush data leaked into the external data segment";
  }
}

TEST_F(TruncationTest, SurvivesLogWrapManyTimes) {
  Open(/*incremental=*/true);
  uint8_t* base = MapRegion();
  Xoshiro256 rng(5);
  // Push several log capacities' worth of records through.
  for (int i = 0; i < 300; ++i) {
    uint64_t offset = rng.Below(8) * kPage + rng.Below(1024);
    uint64_t bytes = 64 + rng.Below(1500);
    CommitWrite(base, offset, bytes, static_cast<uint8_t>(i));
  }
  ASSERT_TRUE(rvm_->Truncate().ok());
  auto file = env_.Open("/seg", OpenMode::kReadOnly);
  std::vector<uint8_t> out(8 * kPage);
  ASSERT_EQ((*file)->ReadAt(0, out).value(), out.size());
  EXPECT_EQ(std::memcmp(out.data(), base, out.size()), 0);
}

TEST_F(TruncationTest, RecoveryAfterIncrementalHeadAdvance) {
  // Crash after incremental truncation has moved the head: recovery must
  // only replay the remaining records and still produce the right state.
  CrashSimEnv crash_env;
  ASSERT_TRUE(RvmInstance::CreateLog(&crash_env, "/log", kLogSize).ok());
  std::vector<uint8_t> expected(8 * kPage, 0);
  {
    RvmOptions options;
    options.env = &crash_env;
    options.log_path = "/log";
    options.runtime.use_incremental_truncation = true;
    options.runtime.truncation_threshold = 0.4;
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok());
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = 8 * kPage;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    Xoshiro256 rng(9);
    for (int i = 0; i < 60; ++i) {
      uint64_t offset = rng.Below(8) * kPage;
      Transaction txn(**rvm);
      ASSERT_TRUE(txn.SetRange(base + offset, 1024).ok());
      std::memset(base + offset, i + 1, 1024);
      std::memset(expected.data() + offset, i + 1, 1024);
      ASSERT_TRUE(txn.Commit(CommitMode::kFlush).ok());
    }
    ASSERT_GT((*rvm)->statistics().incremental_steps, 0u);
    crash_env.Crash();  // kill without Terminate
  }
  crash_env.Recover();
  RvmOptions options;
  options.env = &crash_env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 8 * kPage;
  ASSERT_TRUE((*rvm)->Map(region).ok());
  EXPECT_EQ(std::memcmp(region.address, expected.data(), expected.size()), 0);
}

TEST_F(TruncationTest, LogLargerThanNeededNeverTruncates) {
  Open(/*incremental=*/true);
  uint8_t* base = MapRegion();
  CommitWrite(base, 0, 100, 0x42);
  EXPECT_EQ(rvm_->statistics().incremental_steps, 0u);
  EXPECT_EQ(rvm_->statistics().epoch_truncations, 0u);
}

TEST_F(TruncationTest, GiantTransactionHittingLogFullTruncatesAndRetries) {
  Open(/*incremental=*/false);
  uint8_t* base = MapRegion();
  // Fill the log close to full with small commits (threshold won't trigger
  // between them if we set it high).
  RuntimeOptions runtime = rvm_->GetOptions();
  runtime.truncation_threshold = 0.99;
  rvm_->SetOptions(runtime);
  for (int i = 0; i < 26; ++i) {
    CommitWrite(base, (i % 8) * kPage, 2048, static_cast<uint8_t>(i));
  }
  ASSERT_GT(rvm_->log_bytes_in_use(), rvm_->log_capacity() / 2);
  // Now a transaction whose record doesn't fit in what's left: the commit
  // path must sync, epoch-truncate, and retry transparently.
  Transaction txn(*rvm_);
  ASSERT_TRUE(txn.SetRange(base, 3 * kPage).ok());
  std::memset(base, 0x77, 3 * kPage);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_GT(rvm_->statistics().epoch_truncations, 0u);
  EXPECT_EQ(base[0], 0x77);
}

TEST_F(TruncationTest, ArchivePreservesRecordsBeforeTruncation) {
  // §6: "save a copy of the log before truncation" for post-mortem
  // debugging. With an archive prefix set, epoch truncation must leave a
  // fully formatted, readable log copy behind.
  rvm_.reset();
  ASSERT_TRUE(RvmInstance::CreateLog(&env_, "/log2", kLogSize).ok());
  RvmOptions options;
  options.env = &env_;
  options.log_path = "/log2";
  options.runtime.use_incremental_truncation = false;
  options.runtime.log_archive_prefix = "/archive-";
  auto opened = RvmInstance::Initialize(options);
  ASSERT_TRUE(opened.ok());
  rvm_ = std::move(*opened);
  uint8_t* base = MapRegion();

  CommitWrite(base, 100, 64, 0xAB);
  CommitWrite(base, 300, 32, 0xCD);
  ASSERT_TRUE(rvm_->Truncate().ok());

  // Exactly one archive should exist; find and inspect it.
  std::string archive_path;
  for (int generation = 0; generation < 64; ++generation) {
    std::string candidate = "/archive-" + std::to_string(generation);
    if (env_.Exists(candidate)) {
      archive_path = candidate;
    }
  }
  ASSERT_FALSE(archive_path.empty()) << "no archive written";
  auto archive = LogDevice::Open(&env_, archive_path);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  // Newest first: the 0xCD record, then the 0xAB one.
  std::vector<std::pair<uint64_t, uint8_t>> records;  // (offset, first byte)
  LogDevice::LiveRecords walk(**archive);
  for (;;) {
    auto record = walk.Next();
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (*record == nullptr) {
      break;
    }
    ASSERT_EQ((*record)->parsed.ranges.size(), 1u);
    const RangeView& range = (*record)->parsed.ranges[0];
    records.emplace_back(range.offset, range.data[0]);
  }
  EXPECT_EQ(records, (std::vector<std::pair<uint64_t, uint8_t>>{
                         {300, 0xCD}, {100, 0xAB}}));
  // Segment dictionary carried over for rvmutl's name resolution.
  EXPECT_EQ((*archive)->status().segments.size(), 1u);
  EXPECT_EQ((*archive)->status().segments[0].path, "/seg");
}

TEST_F(TruncationTest, TransactionLargerThanLogFailsCleanly) {
  Open(/*incremental=*/false);
  uint8_t* base = MapRegion(32 * kPage);
  Transaction txn(*rvm_);
  ASSERT_TRUE(txn.SetRange(base, 32 * kPage).ok());  // > 64 KB log
  std::memset(base, 1, 32 * kPage);
  EXPECT_EQ(txn.Commit().code(), ErrorCode::kLogFull);
}

}  // namespace
}  // namespace rvm
