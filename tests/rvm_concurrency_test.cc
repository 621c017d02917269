// Concurrency tests: "Internally, RVM is implemented to be multi-threaded
// and to function correctly in the presence of true parallelism" (§3.1).
// RVM offers no serializability, so threads operate on disjoint ranges; the
// library must keep its own structures (log, spool, page queue, region
// table) consistent, including with a background truncation thread running.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/os/crash_sim.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;

class ConcurrencyTest : public ::testing::Test {
 protected:
  void Open(TruncationMode mode, uint64_t log_size = kLogDataStart + 512 * 1024) {
    rvm_.reset();
    if (!env_.Exists("/log")) {
      ASSERT_TRUE(RvmInstance::CreateLog(&env_, "/log", log_size).ok());
    }
    RvmOptions options;
    options.env = &env_;
    options.log_path = "/log";
    options.truncation_mode = mode;
    auto opened = RvmInstance::Initialize(options);
    ASSERT_TRUE(opened.ok());
    rvm_ = std::move(*opened);
  }

  MemEnv env_;
  std::unique_ptr<RvmInstance> rvm_;
};

TEST_F(ConcurrencyTest, ParallelTransactionsOnDisjointRegions) {
  Open(TruncationMode::kInline);
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 100;

  std::vector<uint8_t*> bases;
  for (int worker = 0; worker < kThreads; ++worker) {
    RegionDescriptor region;
    region.segment_path = "/seg" + std::to_string(worker);
    region.length = 4 * kPage;
    ASSERT_TRUE(rvm_->Map(region).ok());
    bases.push_back(static_cast<uint8_t*>(region.address));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      uint8_t* base = bases[worker];
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto tid = rvm_->BeginTransaction(RestoreMode::kRestore);
        if (!tid.ok()) {
          ++failures;
          return;
        }
        uint64_t offset = (static_cast<uint64_t>(i) * 64) % (4 * kPage - 8);
        uint64_t value = static_cast<uint64_t>(worker) << 32 | i;
        if (!rvm_->Modify(*tid, base + offset, &value, 8).ok() ||
            !rvm_->EndTransaction(*tid, i % 4 == 0 ? CommitMode::kFlush
                                                   : CommitMode::kNoFlush)
                 .ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(rvm_->Flush().ok());

  // Restart and verify every thread's final writes survived.
  Open(TruncationMode::kInline);
  for (int worker = 0; worker < kThreads; ++worker) {
    RegionDescriptor region;
    region.segment_path = "/seg" + std::to_string(worker);
    region.length = 4 * kPage;
    ASSERT_TRUE(rvm_->Map(region).ok());
    const auto* base = static_cast<const uint8_t*>(region.address);
    uint64_t last_offset = (static_cast<uint64_t>(kTxnsPerThread - 1) * 64) %
                           (4 * kPage - 8);
    uint64_t value = 0;
    std::memcpy(&value, base + last_offset, 8);
    EXPECT_EQ(value, (static_cast<uint64_t>(worker) << 32) |
                         (kTxnsPerThread - 1))
        << "worker " << worker;
  }
}

TEST_F(ConcurrencyTest, BackgroundTruncationKeepsLogBounded) {
  // Small log + heavy traffic: the background thread must truncate while
  // commits continue, and the log must never stay above capacity.
  Open(TruncationMode::kBackground, kLogDataStart + 128 * 1024);
  RegionDescriptor region;
  region.segment_path = "/bgseg";
  region.length = 16 * kPage;
  ASSERT_TRUE(rvm_->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  for (int i = 0; i < 400; ++i) {
    Transaction txn(*rvm_);
    ASSERT_TRUE(txn.ok());
    uint64_t offset = (static_cast<uint64_t>(i) % 16) * kPage;
    ASSERT_TRUE(txn.SetRange(base + offset, 2048).ok());
    std::memset(base + offset, i & 0xFF, 2048);
    ASSERT_TRUE(txn.Commit().ok());
    ASSERT_LE(rvm_->log_bytes_in_use(), rvm_->log_capacity());
  }
  uint64_t truncation_work = rvm_->statistics().incremental_steps +
                             rvm_->statistics().epoch_truncations;
  EXPECT_GT(truncation_work, 0u) << "background thread never truncated";

  // Clean shutdown with the thread running; then verify state.
  ASSERT_TRUE(rvm_->Terminate().ok());
  Open(TruncationMode::kInline);
  RegionDescriptor reopened;
  reopened.segment_path = "/bgseg";
  reopened.length = 16 * kPage;
  ASSERT_TRUE(rvm_->Map(reopened).ok());
  const auto* data = static_cast<const uint8_t*>(reopened.address);
  EXPECT_EQ(data[15 * kPage], 399 & 0xFF);
}

TEST_F(ConcurrencyTest, WriteBlockedHeadPageDoesNotStallCommits) {
  // An open transaction pins the head page of the truncation queue while the
  // log sits past threshold but below the epoch-fallback fraction. The
  // background thread can do nothing until that transaction commits, and
  // the commit needs the lock: the thread must wait with the lock released,
  // not spin holding it.
  Open(TruncationMode::kBackground, kLogDataStart + 128 * 1024);
  RegionDescriptor region;
  region.segment_path = "/pinseg";
  region.length = 4 * kPage;
  ASSERT_TRUE(rvm_->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  Transaction pinning(*rvm_);
  ASSERT_TRUE(pinning.ok());
  ASSERT_TRUE(pinning.SetRange(base, 8).ok());
  const RuntimeOptions runtime = rvm_->GetOptions();
  const auto past_threshold = static_cast<uint64_t>(
      (runtime.truncation_threshold + 0.1) *
      static_cast<double>(rvm_->log_capacity()));
  for (int i = 0; rvm_->log_bytes_in_use() < past_threshold; ++i) {
    Transaction txn(*rvm_);
    ASSERT_TRUE(txn.SetRange(base + 1024, 1024).ok());
    std::memset(base + 1024, i & 0xFF, 1024);
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Longer than the thread's idle timeout, so it runs at least one pass
  // against the write-blocked head page before the commits below.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  Transaction more(*rvm_);
  ASSERT_TRUE(more.SetRange(base + kPage, 64).ok());
  ASSERT_TRUE(more.Commit().ok());
  base[0] = 0x5A;
  ASSERT_TRUE(pinning.Commit().ok());

  // Unpinned, the next kick lets the thread bring the log back down.
  const auto threshold = static_cast<uint64_t>(
      runtime.truncation_threshold *
      static_cast<double>(rvm_->log_capacity()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rvm_->log_bytes_in_use() > threshold &&
         std::chrono::steady_clock::now() < deadline) {
    Transaction kick(*rvm_);
    ASSERT_TRUE(kick.SetRange(base + 2 * kPage, 64).ok());
    ASSERT_TRUE(kick.Commit().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(rvm_->log_bytes_in_use(), threshold);
  ASSERT_TRUE(rvm_->Terminate().ok());
}

TEST_F(ConcurrencyTest, BackgroundEpochTruncationAlsoWorks) {
  Open(TruncationMode::kBackground, kLogDataStart + 128 * 1024);
  RuntimeOptions runtime = rvm_->GetOptions();
  runtime.use_incremental_truncation = false;  // thread runs epoch passes
  rvm_->SetOptions(runtime);
  RegionDescriptor region;
  region.segment_path = "/epochseg";
  region.length = 8 * kPage;
  ASSERT_TRUE(rvm_->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);
  for (int i = 0; i < 300; ++i) {
    Transaction txn(*rvm_);
    uint64_t offset = (static_cast<uint64_t>(i) % 8) * kPage;
    ASSERT_TRUE(txn.SetRange(base + offset, 1024).ok());
    std::memset(base + offset, i & 0xFF, 1024);
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_GT(rvm_->statistics().epoch_truncations, 0u)
      << "background thread never ran an epoch pass";
  ASSERT_TRUE(rvm_->Terminate().ok());
}

TEST_F(ConcurrencyTest, ParallelWritersWithBackgroundTruncation) {
  Open(TruncationMode::kBackground, kLogDataStart + 128 * 1024);
  constexpr int kThreads = 3;
  std::vector<uint8_t*> bases;
  for (int worker = 0; worker < kThreads; ++worker) {
    RegionDescriptor region;
    region.segment_path = "/pseg" + std::to_string(worker);
    region.length = 8 * kPage;
    ASSERT_TRUE(rvm_->Map(region).ok());
    bases.push_back(static_cast<uint8_t*>(region.address));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      for (int i = 0; i < 120; ++i) {
        Transaction txn(*rvm_);
        uint64_t offset = (static_cast<uint64_t>(i) % 8) * kPage;
        if (!txn.SetRange(bases[worker] + offset, 1024).ok()) {
          ++failures;
          return;
        }
        std::memset(bases[worker] + offset, worker * 100 + (i & 63), 1024);
        if (!txn.Commit().ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrencyTest, ConcurrentFlushesAndCommitsAreSafe) {
  Open(TruncationMode::kInline);
  RegionDescriptor region;
  region.segment_path = "/fseg";
  region.length = 8 * kPage;
  ASSERT_TRUE(rvm_->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread flusher([&] {
    while (!stop.load()) {
      if (!rvm_->Flush().ok()) {
        ++failures;
        return;
      }
    }
  });
  for (int i = 0; i < 300; ++i) {
    Transaction txn(*rvm_);
    uint64_t offset = (static_cast<uint64_t>(i) * 32) % (8 * kPage - 8);
    if (!txn.SetRange(base + offset, 8).ok() ||
        !txn.Commit(CommitMode::kNoFlush).ok()) {
      ++failures;
      break;
    }
  }
  stop.store(true);
  flusher.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrencyTest, GroupCommitStressSharesForces) {
  // Many threads flush-committing concurrently with Flush(), Truncate(), and
  // the background truncation thread. With a short leader dwell, committers
  // arriving while a force is in flight must share it: strictly fewer log
  // forces than flush commits.
  Open(TruncationMode::kBackground);
  RuntimeOptions runtime = rvm_->GetOptions();
  runtime.group_commit_max_wait_us = 1000;
  runtime.group_commit_max_batch = 4;
  rvm_->SetOptions(runtime);

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 60;
  std::vector<uint8_t*> bases;
  for (int worker = 0; worker < kThreads; ++worker) {
    RegionDescriptor region;
    region.segment_path = "/gseg" + std::to_string(worker);
    region.length = 4 * kPage;
    ASSERT_TRUE(rvm_->Map(region).ok());
    bases.push_back(static_cast<uint8_t*>(region.address));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread flusher([&] {
    while (!stop.load()) {
      if (!rvm_->Flush().ok()) {
        ++failures;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread truncator([&] {
    while (!stop.load()) {
      if (!rvm_->Truncate().ok()) {
        ++failures;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> committers;
  for (int worker = 0; worker < kThreads; ++worker) {
    committers.emplace_back([&, worker] {
      uint8_t* base = bases[worker];
      for (int i = 0; i < kTxnsPerThread; ++i) {
        Transaction txn(*rvm_);
        uint64_t offset = (static_cast<uint64_t>(i) * 64) % (4 * kPage - 64);
        if (!txn.ok() || !txn.SetRange(base + offset, 64).ok()) {
          ++failures;
          return;
        }
        std::memset(base + offset, worker, 64);
        if (!txn.Commit(CommitMode::kFlush).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& committer : committers) {
    committer.join();
  }
  stop.store(true);
  flusher.join();
  truncator.join();
  ASSERT_EQ(failures.load(), 0);

  const RvmStatistics stats = rvm_->statistics().Snapshot();
  EXPECT_EQ(stats.transactions_committed, kThreads * kTxnsPerThread);
  // The group-commit invariant: concurrent flush commits share forces. The
  // flusher/truncator threads also force, so compare against total forces.
  EXPECT_LT(stats.log_forces, stats.transactions_committed)
      << "every commit paid its own force — batching never engaged";
  EXPECT_GT(stats.group_commit_batches, 0u);
  EXPECT_GT(stats.group_commit_batched_txns, stats.group_commit_batches)
      << "no batch ever carried more than one transaction";
  const LatencyHistogram::Snapshot commit_latency =
      stats.commit_latency_us.TakeSnapshot();
  EXPECT_GT(commit_latency.count, 0u);
  EXPECT_GE(commit_latency.max, commit_latency.min);
  EXPECT_GE(commit_latency.Percentile(99), commit_latency.Percentile(50));
  ASSERT_TRUE(rvm_->Terminate().ok());
}

// A shard whose log holds cross-shard decisions forces its sibling logs
// before a truncation discards them. That force must not run under the
// truncated shard's log lock: on shard 1 it would take shard 0's lock under
// shard 1's, against Introspect's ascending order (a lock-order inversion
// TSan reports). Checked for both truncation policies.
TEST(ShardTruncationLockOrderTest, DecisionShardTruncatesWhileIntrospecting) {
  constexpr uint32_t kShards = 3;
  for (bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "epoch");
    MemEnv env;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", kLogDataStart + 64 * 1024,
                                       false, kShards)
                    .ok());
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    options.log_shards = kShards;
    options.runtime.use_incremental_truncation = incremental;
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
    // One region per shard (striping is by segment id, so which region
    // lands where is found through the shard gauges). Transactions touch
    // shards 1 and 2 only, so shard 1 coordinates and logs every decision.
    std::vector<uint8_t*> bases(kShards, nullptr);
    for (uint32_t i = 0; i < kShards; ++i) {
      RegionDescriptor region;
      region.segment_path = "/seg" + std::to_string(i);
      region.length = kPage;
      ASSERT_TRUE((*rvm)->Map(region).ok());
      RvmGauges before = (*rvm)->Introspect();
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
      ASSERT_TRUE(tid.ok());
      ASSERT_TRUE((*rvm)->SetRange(*tid, region.address, 1).ok());
      ASSERT_TRUE((*rvm)->EndTransaction(*tid, CommitMode::kFlush).ok());
      RvmGauges after = (*rvm)->Introspect();
      for (uint32_t shard = 0; shard < kShards; ++shard) {
        if (after.shards[shard].records_appended >
            before.shards[shard].records_appended) {
          bases[shard] = static_cast<uint8_t*>(region.address);
        }
      }
    }
    ASSERT_NE(bases[1], nullptr);
    ASSERT_NE(bases[2], nullptr);

    std::atomic<bool> stop{false};
    std::thread introspector([&] {
      while (!stop.load()) {
        (void)(*rvm)->Introspect();
      }
    });
    Status status = OkStatus();
    for (int i = 0; i < 400 && status.ok(); ++i) {
      auto tid = (*rvm)->BeginTransaction(RestoreMode::kRestore);
      status = tid.status();
      for (uint32_t shard = 1; shard < kShards && status.ok(); ++shard) {
        status = (*rvm)->SetRange(*tid, bases[shard], 1);
        bases[shard][0] = static_cast<uint8_t>(i);
      }
      if (status.ok()) {
        status = (*rvm)->EndTransaction(*tid, CommitMode::kFlush);
      }
      if (status.ok() && !incremental && i % 50 == 49) {
        status = (*rvm)->Truncate();
      }
    }
    stop.store(true);
    introspector.join();
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_GT((*rvm)->Introspect().shards[1].truncations, 0u);
  }
}

TEST(GroupCommitCrashTest, MidBatchCutRecoversOnlyWholeTransactions) {
  // Concurrent flush committers each write the same value to a pair of
  // cells; a persist-budget power cut lands somewhere inside the commit
  // batches. After recovery each pair must match — a batch cut mid-write
  // may lose whole transactions but never split one.
  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 6;
  constexpr uint64_t kRegionLen = 4 * kPage;
  for (uint64_t budget : {2000u, 6000u, 12000u, 20000u, 32000u, 48000u}) {
    CrashSimEnv env;
    ASSERT_TRUE(
        RvmInstance::CreateLog(&env, "/log", kLogDataStart + 256 * 1024).ok());
    {
      RvmOptions options;
      options.env = &env;
      options.log_path = "/log";
      options.runtime.group_commit_max_wait_us = 500;
      options.runtime.group_commit_max_batch = 4;
      auto rvm = RvmInstance::Initialize(options);
      ASSERT_TRUE(rvm.ok());
      RegionDescriptor region;
      region.segment_path = "/seg";
      region.length = kRegionLen;
      ASSERT_TRUE((*rvm)->Map(region).ok());
      auto* slots = reinterpret_cast<uint64_t*>(region.address);
      env.SetPersistBudget(budget);

      std::vector<std::thread> committers;
      for (int worker = 0; worker < kThreads; ++worker) {
        committers.emplace_back([&, worker] {
          for (int i = 0; i < kTxnsPerThread; ++i) {
            auto tid = (*rvm)->BeginTransaction(RestoreMode::kNoRestore);
            if (!tid.ok()) {
              return;  // post-crash failures are expected
            }
            uint64_t value = static_cast<uint64_t>(worker) * 1000 + i + 1;
            uint64_t* pair = slots + worker * 2;
            if (!(*rvm)->Modify(*tid, &pair[0], &value, sizeof(value)).ok() ||
                !(*rvm)->Modify(*tid, &pair[1], &value, sizeof(value)).ok()) {
              (void)(*rvm)->AbortTransaction(*tid);
              return;
            }
            (void)(*rvm)->EndTransaction(*tid, CommitMode::kFlush);
          }
        });
      }
      for (std::thread& committer : committers) {
        committer.join();
      }
    }
    env.Recover();
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    auto rvm = RvmInstance::Initialize(options);
    ASSERT_TRUE(rvm.ok()) << "recovery failed at budget " << budget << ": "
                          << rvm.status().ToString();
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = kRegionLen;
    ASSERT_TRUE((*rvm)->Map(region).ok());
    const auto* slots = reinterpret_cast<const uint64_t*>(region.address);
    for (int worker = 0; worker < kThreads; ++worker) {
      EXPECT_EQ(slots[worker * 2], slots[worker * 2 + 1])
          << "budget " << budget << ": worker " << worker
          << "'s transaction was recovered in part";
    }
  }
}

}  // namespace
}  // namespace rvm
