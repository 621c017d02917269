// Continuous-observability tests (DESIGN.md §11): RvmGauges/Introspect under
// load, the seqlock'd statistics snapshot, the StatsSampler ring and its
// rvm-timeseries-v2 JSONL dumps, and the monitor's time-series lifecycle
// (Tick and DumpTimeseries across Terminate and poison).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/monitor/monitor.h"
#include "src/monitor/sampler.h"
#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/telemetry/json.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;

std::string ReadFileText(Env* env, const std::string& path) {
  auto file = env->Open(path, OpenMode::kReadOnly);
  if (!file.ok()) {
    return "";
  }
  auto size = (*file)->Size();
  if (!size.ok()) {
    return "";
  }
  std::string text(*size, '\0');
  if (!(*file)
           ->ReadAt(0, {reinterpret_cast<uint8_t*>(text.data()), *size})
           .ok()) {
    return "";
  }
  return text;
}

// ---------------------------------------------------------------------------
// Introspect

class IntrospectTest : public ::testing::Test {
 protected:
  void Open(RvmOptions extra = {}) {
    RvmOptions options = extra;
    options.env = &env_;
    options.log_path = "/log";
    if (!env_.Exists("/log")) {
      ASSERT_TRUE(RvmInstance::CreateLog(&env_, "/log", 1 << 20).ok());
    }
    auto opened = RvmInstance::Initialize(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    rvm_ = std::move(*opened);
  }

  uint8_t* MapRegion(const std::string& path, uint64_t length) {
    RegionDescriptor region;
    region.segment_path = path;
    region.length = length;
    EXPECT_TRUE(rvm_->Map(region).ok());
    return static_cast<uint8_t*>(region.address);
  }

  MemEnv env_;
  std::unique_ptr<RvmInstance> rvm_;
};

TEST_F(IntrospectTest, FreshInstanceGaugesAreSane) {
  Open();
  RvmGauges gauges = rvm_->Introspect();
  // Capacity is the record area: the file minus the two status blocks.
  EXPECT_EQ(gauges.log_capacity, (1u << 20) - kLogDataStart);
  EXPECT_EQ(gauges.log_bytes_in_use, 0u);
  EXPECT_EQ(gauges.log_utilization, 0.0);
  EXPECT_EQ(gauges.log_reclaimable_bytes, 0u);
  EXPECT_EQ(gauges.page_queue_depth, 0u);
  EXPECT_EQ(gauges.open_transactions, 0u);
  EXPECT_EQ(gauges.poisoned, 0u);
  EXPECT_TRUE(gauges.regions.empty());
}

TEST_F(IntrospectTest, GaugesTrackCommitsAndRegionState) {
  Open();
  uint8_t* base = MapRegion("/seg", 4 * kPage);

  for (int i = 0; i < 8; ++i) {
    Transaction txn(*rvm_);
    ASSERT_TRUE(txn.SetRange(base + i * 128, 64).ok());
    base[i * 128] = static_cast<uint8_t>(i);
    ASSERT_TRUE(txn.Commit().ok());
  }

  RvmGauges gauges = rvm_->Introspect();
  EXPECT_GT(gauges.log_bytes_in_use, 0u);
  EXPECT_GT(gauges.log_utilization, 0.0);
  EXPECT_LE(gauges.log_utilization, 1.0);
  EXPECT_GT(gauges.appended_lsn, 0u);
  EXPECT_EQ(gauges.appended_lsn, gauges.durable_lsn);  // all flush commits
  // Committed-but-unapplied pages sit in the queue; all 8 commits touched
  // the same page.
  EXPECT_GE(gauges.page_queue_depth, 1u);
  ASSERT_EQ(gauges.regions.size(), 1u);
  const RegionGauges& region = gauges.regions[0];
  EXPECT_EQ(region.segment_path, "/seg");
  EXPECT_EQ(region.num_pages, 4u);
  EXPECT_GE(region.dirty_pages, 1u);
  EXPECT_EQ(region.active_transactions, 0u);
  EXPECT_EQ(gauges.total_dirty_pages(), region.dirty_pages);
  // Nothing is write-blocked, so the whole live log is reclaimable.
  EXPECT_EQ(gauges.log_reclaimable_bytes, gauges.log_bytes_in_use);
}

TEST_F(IntrospectTest, OpenTransactionReservesPages) {
  Open();
  uint8_t* base = MapRegion("/seg", 4 * kPage);

  auto tid = rvm_->BeginTransaction(RestoreMode::kRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(rvm_->SetRange(*tid, base, 64).ok());

  RvmGauges gauges = rvm_->Introspect();
  EXPECT_EQ(gauges.open_transactions, 1u);
  ASSERT_EQ(gauges.regions.size(), 1u);
  EXPECT_EQ(gauges.regions[0].active_transactions, 1u);
  EXPECT_GE(gauges.regions[0].uncommitted_pages, 1u);
  EXPECT_GE(gauges.regions[0].reserved_pages, 1u);
  EXPECT_EQ(gauges.total_reserved_pages(), gauges.regions[0].reserved_pages);

  ASSERT_TRUE(rvm_->AbortTransaction(*tid).ok());
  gauges = rvm_->Introspect();
  EXPECT_EQ(gauges.open_transactions, 0u);
  EXPECT_EQ(gauges.regions[0].uncommitted_pages, 0u);
}

TEST_F(IntrospectTest, GaugesJsonRendersFlatNumbersAndRegions) {
  Open();
  uint8_t* base = MapRegion("/seg", 2 * kPage);
  Transaction txn(*rvm_);
  ASSERT_TRUE(txn.SetRange(base, 32).ok());
  base[0] = 1;
  ASSERT_TRUE(txn.Commit().ok());

  std::string json = GaugesJson(rvm_->Introspect());
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  const JsonValue* in_use = parsed->Find("log_bytes_in_use");
  ASSERT_NE(in_use, nullptr);
  EXPECT_TRUE(in_use->IsNumber());
  EXPECT_GT(in_use->number, 0);
  const JsonValue* regions = parsed->Find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_TRUE(regions->IsArray());
  ASSERT_EQ(regions->array.size(), 1u);
  const JsonValue* segment = regions->array[0].Find("segment");
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->string, "/seg");
}

// The TSan target: Introspect races against committers and the incremental
// truncation they trigger. The small log forces continuous truncation, so
// the introspection pass walks page vectors and the queue while both mutate.
TEST_F(IntrospectTest, ConsistentUnderConcurrentCommitsAndTruncation) {
  ASSERT_TRUE(
      RvmInstance::CreateLog(&env_, "/log", kLogDataStart + 256 * 1024).ok());
  RvmOptions options;
  options.runtime.use_incremental_truncation = true;
  options.runtime.truncation_threshold = 0.30;
  Open(options);

  constexpr int kThreads = 3;
  constexpr int kTxnsPerThread = 120;
  std::vector<uint8_t*> bases;
  for (int worker = 0; worker < kThreads; ++worker) {
    bases.push_back(
        MapRegion("/seg" + std::to_string(worker), 8 * kPage));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      uint8_t* base = bases[worker];
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto tid = rvm_->BeginTransaction(RestoreMode::kNoRestore);
        if (!tid.ok()) {
          ++failures;
          return;
        }
        uint64_t offset = (static_cast<uint64_t>(i) * 512) % (8 * kPage - 512);
        if (!rvm_->SetRange(*tid, base + offset, 512).ok()) {
          ++failures;
          return;
        }
        std::memset(base + offset, i & 0xFF, 512);
        if (!rvm_->EndTransaction(*tid, i % 4 == 0 ? CommitMode::kFlush
                                                   : CommitMode::kNoFlush)
                 .ok()) {
          ++failures;
          return;
        }
      }
    });
  }

  // The observer: hammer Introspect and the seqlock'd Snapshot while the
  // workers run, asserting cross-field invariants that a torn read would
  // break.
  std::thread observer([&] {
    while (!done.load(std::memory_order_acquire)) {
      RvmGauges gauges = rvm_->Introspect();
      EXPECT_LE(gauges.log_bytes_in_use, gauges.log_capacity);
      EXPECT_LE(gauges.log_reclaimable_bytes, gauges.log_bytes_in_use);
      EXPECT_GE(gauges.appended_lsn, gauges.durable_lsn);
      EXPECT_LE(gauges.log_utilization, 1.0);
      ASSERT_EQ(gauges.regions.size(), static_cast<size_t>(kThreads));
      for (const RegionGauges& region : gauges.regions) {
        EXPECT_LE(region.dirty_pages, region.num_pages);
        EXPECT_LE(region.reserved_pages, region.num_pages);
      }
      // Exercise the seqlock read side concurrently with writers. Only
      // single-counter bounds are asserted: a snapshot that exhausts its
      // retries under write pressure may still mix update clusters.
      RvmStatistics stats = rvm_->statistics().Snapshot();
      EXPECT_LE(stats.transactions_committed.load(),
                static_cast<uint64_t>(kThreads) * kTxnsPerThread);
    }
  });

  for (std::thread& thread : threads) {
    thread.join();
  }
  done.store(true, std::memory_order_release);
  observer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(rvm_->statistics().truncations_completed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Seqlock'd statistics snapshots

TEST(StatisticsSeqlockTest, MultiFieldUpdateBracketsInFlight) {
  RvmStatistics stats;
  EXPECT_EQ(stats.updates_in_flight(), 0u);
  {
    MultiFieldUpdate update(stats);
    EXPECT_EQ(stats.updates_in_flight(), 1u);
    ++stats.transactions_committed;
    ++stats.no_flush_commits;
  }
  EXPECT_EQ(stats.updates_in_flight(), 0u);
  RvmStatistics copy = stats.Snapshot();
  EXPECT_EQ(copy.transactions_committed, 1u);
  EXPECT_EQ(copy.no_flush_commits, 1u);
}

TEST(StatisticsSeqlockTest, SnapshotRetriesAroundWriters) {
  RvmStatistics stats;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      MultiFieldUpdate update(stats);
      ++stats.transactions_committed;
      ++stats.no_flush_commits;
    }
    done.store(true, std::memory_order_release);
  });
  // Clustered fields move together: any snapshot that observed the cluster
  // cleanly sees them equal.
  uint64_t clean_reads = 0;
  while (!done.load(std::memory_order_acquire)) {
    RvmStatistics copy = stats.Snapshot();
    if (copy.updates_in_flight() == 0) {
      EXPECT_EQ(copy.transactions_committed, copy.no_flush_commits);
      ++clean_reads;
    }
  }
  writer.join();
  // On a single-core box the reader loop may never run while the writer is
  // live; the post-join snapshot is always clean, keeping the bound
  // deterministic.
  RvmStatistics final_copy = stats.Snapshot();
  EXPECT_EQ(final_copy.updates_in_flight(), 0u);
  EXPECT_EQ(final_copy.transactions_committed, final_copy.no_flush_commits);
  ++clean_reads;
  EXPECT_GT(clean_reads, 0u);
  EXPECT_EQ(stats.Snapshot().transactions_committed, 20000u);
}

// ---------------------------------------------------------------------------
// StatsSampler ring

TEST(StatsSamplerTest, RingWrapsAndCountsDrops) {
  StatsSampler::Options options;
  options.sample_capacity = 4;
  options.source = "ring-test";
  StatsSampler sampler(options);
  for (uint64_t clock = 1; clock <= 10; ++clock) {
    sampler.Record({.timestamp_us = clock,
                    .body = "\"gauges\":{\"n\":" + std::to_string(clock) +
                            "}"});
  }
  EXPECT_EQ(sampler.recorded(), 10u);
  EXPECT_EQ(sampler.dropped(), 6u);
  std::vector<TimeseriesSample> samples = sampler.Samples();
  ASSERT_EQ(samples.size(), 4u);
  // Oldest-first; the four newest survive.
  EXPECT_EQ(samples.front().timestamp_us, 7u);
  EXPECT_EQ(samples.back().timestamp_us, 10u);

  std::string jsonl = sampler.DumpJsonl();
  Status valid = ValidateTimeseriesJsonl(jsonl);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << jsonl;
}

TEST(StatsSamplerTest, DisabledSamplerRecordsNothing) {
  StatsSampler::Options options;  // capacity 0 = disabled
  StatsSampler sampler(options);
  EXPECT_FALSE(sampler.enabled());
  sampler.Record({.timestamp_us = 1, .body = {}});
  EXPECT_EQ(sampler.recorded(), 0u);
  EXPECT_TRUE(sampler.Samples().empty());
}

// ---------------------------------------------------------------------------
// Monitor time-series lifecycle

// Opens a fresh single-shard instance on `env` with a log at /log.
std::unique_ptr<RvmInstance> OpenInstance(Env* env, RvmOptions options = {}) {
  EXPECT_TRUE(RvmInstance::CreateLog(env, "/log", 1 << 20).ok());
  options.env = env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  EXPECT_TRUE(rvm.ok()) << rvm.status().ToString();
  return rvm.ok() ? std::move(*rvm) : nullptr;
}

TEST(TimeseriesLifecycleTest, TickAfterTerminateDumpsValidTimeseries) {
  MemEnv env;
  std::unique_ptr<RvmInstance> rvm = OpenInstance(&env);
  ASSERT_NE(rvm, nullptr);
  auto monitor = RvmMonitor::Create(*rvm, &env, {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 2 * kPage;
  ASSERT_TRUE(rvm->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);
  for (int i = 0; i < 4; ++i) {
    Transaction txn(*rvm);
    ASSERT_TRUE(txn.SetRange(base + i * 64, 32).ok());
    base[i * 64] = static_cast<uint8_t>(i);
    ASSERT_TRUE(txn.Commit().ok());
    (*monitor)->Tick();
  }
  ASSERT_TRUE(rvm->Terminate().ok());
  // Terminate writes no series itself; the caller's last tick captures the
  // terminated instance and its dump lands wherever the caller says.
  EXPECT_FALSE(env.Exists("/log.timeseries.jsonl"));
  (*monitor)->Tick();
  ASSERT_TRUE((*monitor)->DumpTimeseries("/log.timeseries.jsonl").ok());

  std::string jsonl = ReadFileText(&env, "/log.timeseries.jsonl");
  ASSERT_FALSE(jsonl.empty());
  Status valid = ValidateTimeseriesJsonl(jsonl);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << jsonl;
  EXPECT_NE(jsonl.find("\"schema\":\"rvm-timeseries-v2\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"sample_interval_us\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"log_bytes_in_use\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"transactions_committed\""), std::string::npos);
  // 4 ticks + 1 after Terminate, one line each after the header.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 6);
}

TEST(TimeseriesLifecycleTest, DumpTimeseriesRequiresSampling) {
  MemEnv env;
  std::unique_ptr<RvmInstance> rvm = OpenInstance(&env);
  ASSERT_NE(rvm, nullptr);
  auto monitor = RvmMonitor::Create(*rvm, &env, {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  Status dumped = (*monitor)->DumpTimeseries("/ts.jsonl");
  EXPECT_EQ(dumped.code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(env.Exists("/ts.jsonl"));
  ASSERT_TRUE(rvm->Terminate().ok());
  EXPECT_FALSE(env.Exists("/log.timeseries.jsonl"));
}

TEST(TimeseriesLifecycleTest, ExplicitDumpWritesRequestedPath) {
  MemEnv env;
  std::unique_ptr<RvmInstance> rvm = OpenInstance(&env);
  ASSERT_NE(rvm, nullptr);
  auto monitor = RvmMonitor::Create(*rvm, &env, {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  (*monitor)->Tick();
  (*monitor)->Tick();
  ASSERT_TRUE((*monitor)->DumpTimeseries("/explicit.jsonl").ok());
  std::string jsonl = ReadFileText(&env, "/explicit.jsonl");
  Status valid = ValidateTimeseriesJsonl(jsonl);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << jsonl;
}

// Poison no longer writes a series: that is the monitor's job, and a
// poisoned instance can still be introspected, so the caller can tick and
// dump after the failure — with the event ring off, too.
TEST(TimeseriesLifecycleTest, TickAndDumpAfterPoisonWithTraceDisabled) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  RvmOptions options;
  options.span_ring_capacity = 0;  // no flight recorder
  std::unique_ptr<RvmInstance> rvm = OpenInstance(&env, options);
  ASSERT_NE(rvm, nullptr);
  auto monitor = RvmMonitor::Create(*rvm, &mem, {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();

  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 2 * kPage;
  ASSERT_TRUE(rvm->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);
  (*monitor)->Tick();

  FaultSpec spec;
  spec.op = FaultOp::kSync;
  spec.sticky = true;
  spec.path_substring = "/log";
  env.InjectFault(spec);

  auto tid = rvm->BeginTransaction(RestoreMode::kNoRestore);
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(rvm->SetRange(*tid, base, 64).ok());
  base[0] = 1;
  ASSERT_FALSE(rvm->EndTransaction(*tid, CommitMode::kFlush).ok());
  ASSERT_TRUE(rvm->poisoned());
  EXPECT_FALSE(mem.Exists("/log.timeseries.jsonl"));

  (*monitor)->Tick();
  ASSERT_TRUE((*monitor)->DumpTimeseries("/log.timeseries.jsonl").ok());
  std::string jsonl = ReadFileText(&mem, "/log.timeseries.jsonl");
  ASSERT_FALSE(jsonl.empty());
  Status valid = ValidateTimeseriesJsonl(jsonl);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << jsonl;
  EXPECT_NE(jsonl.find("\"poisoned\":1"), std::string::npos) << jsonl;
}

}  // namespace
}  // namespace rvm
