// End-to-end test of the rvmutl log-inspection tool (§6): runs the real
// binary as a subprocess against logs produced by the library.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "src/rvm/rvm.h"

#ifndef RVMUTL_PATH
#error "RVMUTL_PATH must be defined by the build"
#endif

namespace rvm {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunTool(const std::string& arguments) {
  std::string command = std::string(RVMUTL_PATH) + " " + arguments + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) {
    return result;
  }
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

class RvmutlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rvmutl_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    log_path_ = (dir_ / "log").string();
    segment_path_ = (dir_ / "seg").string();

    ASSERT_TRUE(RvmInstance::CreateLog(GetRealEnv(), log_path_, 1 << 20).ok());
    RvmOptions options;
    options.log_path = log_path_;
    auto instance = RvmInstance::Initialize(options);
    ASSERT_TRUE(instance.ok());
    RegionDescriptor region;
    region.segment_path = segment_path_;
    region.length = 4096;
    ASSERT_TRUE((*instance)->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    for (int i = 0; i < 3; ++i) {
      Transaction txn(**instance);
      ASSERT_TRUE(txn.SetRange(base + i * 64, 16).ok());
      std::memcpy(base + i * 64, "HISTORYDATA!", 12);
      ASSERT_TRUE(txn.Commit().ok());
    }
    ASSERT_TRUE((*instance)->Terminate().ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string log_path_;
  std::string segment_path_;
};

TEST_F(RvmutlTest, StatusShowsLogGeometry) {
  CommandResult result = RunTool(log_path_ + " status");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("log size:"), std::string::npos);
  EXPECT_NE(result.output.find("1048576"), std::string::npos);
  EXPECT_NE(result.output.find("segments:          1"), std::string::npos);
}

TEST_F(RvmutlTest, SegmentsListsDictionary) {
  CommandResult result = RunTool(log_path_ + " segments");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find(segment_path_), std::string::npos);
}

TEST_F(RvmutlTest, RecordsListsTransactions) {
  CommandResult result = RunTool(log_path_ + " records");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("seqno"), std::string::npos);
  EXPECT_NE(result.output.find(segment_path_ + "[0..16)"), std::string::npos);
  EXPECT_NE(result.output.find("[128..144)"), std::string::npos);
}

TEST_F(RvmutlTest, HistoryShowsModificationData) {
  CommandResult result = RunTool(log_path_ + " history " + segment_path_ + " 0 16");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("HISTORYDATA!"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, HistoryOfUntouchedRangeSaysSo) {
  CommandResult result = RunTool(log_path_ + " history " + segment_path_ +
                                 " 2048 64");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("no live log records"), std::string::npos);
}

TEST_F(RvmutlTest, VerifyPassesOnHealthyLog) {
  CommandResult result = RunTool(log_path_ + " verify");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("OK: 3 transaction records"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, StatsRunsRecoveryAndPrintsCounters) {
  CommandResult result = RunTool(log_path_ + " stats");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // The workload terminated cleanly (Terminate truncates nothing here; the
  // three committed records are still live), so recovery applies them.
  EXPECT_NE(result.output.find("recovery records applied:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("group commit batches:"), std::string::npos);
  EXPECT_NE(result.output.find("commit latency max us:"), std::string::npos);
  EXPECT_NE(result.output.find("log in use:"), std::string::npos);
  // Recovery empties the log with one status write, counted and timed
  // apart from the log forces.
  EXPECT_NE(result.output.find("status writes:                          1"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("status_write_us"), std::string::npos);
}

TEST_F(RvmutlTest, StatsJsonEmitsValidTelemetryDocument) {
  CommandResult result = RunTool(log_path_ + " stats --json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"schema\":\"rvm-telemetry-v1\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"commit_latency_us\""), std::string::npos);
  EXPECT_NE(result.output.find("\"recovery_apply_us\""), std::string::npos);
  EXPECT_NE(result.output.find("\"log_bytes_in_use\""), std::string::npos);
}

TEST_F(RvmutlTest, StatsJsonFileRoundTripsThroughCheckJson) {
  std::string json_path = (dir_ / "stats.json").string();
  CommandResult result = RunTool(log_path_ + " stats --json=" + json_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;

  CommandResult check = RunTool("check-json " + json_path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("valid rvm-telemetry-v1 document"),
            std::string::npos)
      << check.output;
}

TEST_F(RvmutlTest, CheckJsonRejectsInvalidDocument) {
  std::string bad_path = (dir_ / "bad.json").string();
  FILE* f = std::fopen(bad_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\":\"not-telemetry\"}", f);
  std::fclose(f);
  CommandResult result = RunTool("check-json " + bad_path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("INVALID"), std::string::npos) << result.output;

  CommandResult missing = RunTool("check-json " + (dir_ / "nope.json").string());
  EXPECT_EQ(missing.exit_code, 2);
}

TEST_F(RvmutlTest, TracePrintsRecoveryEvents) {
  CommandResult result = RunTool(log_path_ + " trace");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // Opening the log replays the three committed transactions; the event
  // ring of that recovery is the tool's entire output, an rvm-spans-v1
  // document.
  EXPECT_NE(result.output.find("\"kind\":\"recovery-scan\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"recovery-apply\""),
            std::string::npos)
      << result.output;
  // ... which the schema-sniffing validator accepts.
  const std::string trace_path = (dir_ / "trace.jsonl").string();
  FILE* out = std::fopen(trace_path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  std::fputs(result.output.c_str(), out);
  std::fclose(out);
  CommandResult check = RunTool("check-json " + trace_path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("rvm-spans-v1"), std::string::npos)
      << check.output;
}

TEST_F(RvmutlTest, WatchGaugesThenTimelineRoundTrip) {
  // `watch --gauges` drives its own scratch workload, renders the gauge
  // table on an interval, and dumps the sampler ring on Terminate;
  // `timeline` must validate and render that dump.
  CommandResult watch = RunTool(
      "watch --gauges --duration-ms=600 --interval-ms=100 --threads=2");
  EXPECT_EQ(watch.exit_code, 0) << watch.output;
  EXPECT_NE(watch.output.find("committed, refresh"), std::string::npos)
      << watch.output;
  EXPECT_NE(watch.output.find("log"), std::string::npos) << watch.output;
  const std::string marker = "time series dumped to ";
  size_t at = watch.output.find(marker);
  ASSERT_NE(at, std::string::npos) << watch.output;
  at += marker.size();
  const std::string dump_path =
      watch.output.substr(at, watch.output.find('\n', at) - at);

  CommandResult timeline = RunTool("timeline " + dump_path);
  EXPECT_EQ(timeline.exit_code, 0) << timeline.output;
  EXPECT_NE(timeline.output.find("valid rvm-timeseries-v2 document"),
            std::string::npos)
      << timeline.output;
  // The rendered table: a header row plus one row per sample.
  EXPECT_NE(timeline.output.find("t(ms)"), std::string::npos)
      << timeline.output;
  EXPECT_NE(timeline.output.find("committed"), std::string::npos);

  // `watch` leaves its scratch directory for exactly this kind of
  // post-mortem; the test cleans it up.
  std::filesystem::remove_all(std::filesystem::path(dump_path).parent_path());
}

TEST_F(RvmutlTest, TimelineRejectsInvalidDump) {
  std::string bad_path = (dir_ / "bad.jsonl").string();
  FILE* f = std::fopen(bad_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"schema\":\"rvm-timeseries-v2\"}\n", f);  // header missing keys
  std::fclose(f);
  CommandResult result = RunTool("timeline " + bad_path);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("INVALID"), std::string::npos) << result.output;
}

TEST_F(RvmutlTest, TimelineMissingFileFails) {
  CommandResult result = RunTool("timeline " + (dir_ / "nope.jsonl").string());
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("cannot open"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, HealthReportsHealthyLog) {
  CommandResult result = RunTool(log_path_ + " health");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("ok"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("healthy"), std::string::npos) << result.output;
}

TEST_F(RvmutlTest, HealthFlagsQuarantineSidecarAndRepairClearsIt) {
  // A quarantine sidecar left by a prior in-process quarantine marks the
  // shard quarantined with exit 1 (device readable — repair will fix it);
  // `repair` re-runs recovery and removes the stale sidecar.
  const std::string sidecar = log_path_ + ".quarantine.json";
  std::FILE* f = std::fopen(sidecar.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "{\"reason\":\"injected for test\","
      "\"shards\":[{\"shard\":0,\"retries\":7}]}",
      f);
  std::fclose(f);

  CommandResult health = RunTool(log_path_ + " health");
  EXPECT_EQ(health.exit_code, 1) << health.output;
  EXPECT_NE(health.output.find("quarantined"), std::string::npos)
      << health.output;
  EXPECT_NE(health.output.find("injected for test"), std::string::npos)
      << health.output;
  EXPECT_NE(health.output.find("7 retries"), std::string::npos)
      << health.output;

  CommandResult repair = RunTool(log_path_ + " repair");
  EXPECT_EQ(repair.exit_code, 0) << repair.output;
  EXPECT_NE(repair.output.find("healthy"), std::string::npos) << repair.output;
  EXPECT_FALSE(std::filesystem::exists(sidecar)) << repair.output;

  CommandResult again = RunTool(log_path_ + " health");
  EXPECT_EQ(again.exit_code, 0) << again.output;
}

TEST_F(RvmutlTest, HealthExitTwoWhenShardUnreadable) {
  // Multi-shard log with one shard file removed: the worst shard drives the
  // exit code to 2 (device unreadable; restore/replace the file, then run
  // repair).
  const std::string log = (dir_ / "shardedlog").string();
  ASSERT_TRUE(
      RvmInstance::CreateLog(GetRealEnv(), log, 1 << 20, false, 4).ok());
  CommandResult healthy = RunTool(log + " health");
  EXPECT_EQ(healthy.exit_code, 0) << healthy.output;
  std::filesystem::remove(ShardLogPath(log, 2));
  CommandResult result = RunTool(log + " health");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("quarantined"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, HealthJsonRoundTripsThroughCheckJson) {
  const std::string json_path = (dir_ / "health.json").string();
  CommandResult result = RunTool(log_path_ + " health --json=" + json_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  CommandResult check = RunTool("check-json " + json_path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
}

TEST_F(RvmutlTest, ScrubHealthyLogExitsZero) {
  CommandResult result = RunTool(log_path_ + " scrub");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("scrub:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("0 mismatch(es)"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, VerifySegmentsPassesAfterScrub) {
  // scrub records the baseline checksums; the offline --segments leg then
  // verifies the segment file against the sidecar it left behind.
  CommandResult scrub = RunTool(log_path_ + " scrub");
  ASSERT_EQ(scrub.exit_code, 0) << scrub.output;
  CommandResult result = RunTool(log_path_ + " verify --segments");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("match their recorded checksums"),
            std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, CorruptedSegmentFailsVerifySegmentsAndScrub) {
  CommandResult scrub = RunTool(log_path_ + " scrub");
  ASSERT_EQ(scrub.exit_code, 0) << scrub.output;
  {
    std::FILE* f = std::fopen(segment_path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    ASSERT_NE(std::fputc(byte ^ 0xFF, f), EOF);
    std::fclose(f);
  }
  // The data-segment leg fails with exit 1; exit 3 stays reserved for
  // proven committed-log loss, which this is not.
  CommandResult verify = RunTool(log_path_ + " verify --segments");
  EXPECT_EQ(verify.exit_code, 1) << verify.output;
  EXPECT_NE(verify.output.find("FAILED checksum"), std::string::npos)
      << verify.output;
  // The newest committed image was truncated out of the log, so scrub
  // cannot repair: it quarantines and exits nonzero.
  CommandResult rescrub = RunTool(log_path_ + " scrub");
  EXPECT_EQ(rescrub.exit_code, 1) << rescrub.output;
  EXPECT_NE(rescrub.output.find("1 quarantined"), std::string::npos)
      << rescrub.output;
}

TEST_F(RvmutlTest, ExploreFaultShardNeedsMultipleShards) {
  CommandResult result = RunTool("explore --fault-shard=1 --max-schedules=1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST_F(RvmutlTest, MissingLogFails) {
  CommandResult result = RunTool((dir_ / "nonexistent").string() + " status");
  EXPECT_NE(result.exit_code, 0);
}

TEST_F(RvmutlTest, BadUsageShowsHelp) {
  CommandResult result = RunTool(log_path_);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST_F(RvmutlTest, UnknownSegmentInHistoryFails) {
  CommandResult result = RunTool(log_path_ + " history /no/such/segment 0 16");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("unknown segment"), std::string::npos);
}

TEST_F(RvmutlTest, HelpListsEveryCommand) {
  CommandResult result = RunTool("--help");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // The usage text is generated from the dispatch table, so every routed
  // command must appear — a command added to the table can never be missing
  // from the help.
  for (const char* command :
       {"status", "segments", "records", "history", "verify", "scrub",
        "stats", "trace", "health", "repair", "explore", "watch",
        "timeline", "check-json", "check-metrics", "slo"}) {
    EXPECT_NE(result.output.find(std::string("\n  ") + command),
              std::string::npos)
        << "missing '" << command << "' in:\n"
        << result.output;
  }
  // `top` and `spans` were folded into `watch` (--gauges, --spans).
  for (const char* retired : {"top", "spans"}) {
    EXPECT_EQ(result.output.find(std::string("\n  ") + retired + " "),
              std::string::npos)
        << retired;
    EXPECT_EQ(RunTool(retired).exit_code, 2) << retired;
  }
  EXPECT_NE(result.output.find("exit codes"), std::string::npos);
  EXPECT_NE(result.output.find("check-json schemas:"), std::string::npos);
  // `-h` and the bare `help` word route the same way.
  EXPECT_EQ(RunTool("-h").exit_code, 0);
  EXPECT_EQ(RunTool("help").exit_code, 0);
}

TEST_F(RvmutlTest, CheckMetricsValidatesExpositionFiles) {
  const std::string good_path = (dir_ / "good.om").string();
  FILE* good = std::fopen(good_path.c_str(), "w");
  ASSERT_NE(good, nullptr);
  std::fputs("# TYPE rvm_commits counter\nrvm_commits_total 3\n# EOF\n", good);
  std::fclose(good);
  CommandResult ok = RunTool("check-metrics " + good_path);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("OK"), std::string::npos);
  EXPECT_NE(ok.output.find("1 series"), std::string::npos);

  const std::string bad_path = (dir_ / "bad.om").string();
  FILE* bad = std::fopen(bad_path.c_str(), "w");
  ASSERT_NE(bad, nullptr);
  std::fputs("# TYPE rvm_commits counter\nrvm_commits 3\n# EOF\n", bad);
  std::fclose(bad);
  CommandResult invalid = RunTool("check-metrics " + bad_path);
  EXPECT_EQ(invalid.exit_code, 1) << invalid.output;
  EXPECT_NE(invalid.output.find("INVALID"), std::string::npos);

  CommandResult missing =
      RunTool("check-metrics " + (dir_ / "nope.om").string());
  EXPECT_EQ(missing.exit_code, 2);
}

TEST_F(RvmutlTest, WatchExportsLintedMetricsAndServesHttp) {
  CommandResult result = RunTool(
      "watch --duration-ms=600 --interval-ms=150 --threads=2 --port=0");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // --port=0 binds an ephemeral listener; the header advertises the URL.
  EXPECT_NE(result.output.find("http://127.0.0.1:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("healthz 200"), std::string::npos);
  EXPECT_NE(result.output.find("exposition lint OK"), std::string::npos);
  // The exported file must satisfy the same lint CI runs.
  const std::string marker = "metrics exported to ";
  size_t at = result.output.find(marker);
  ASSERT_NE(at, std::string::npos) << result.output;
  at += marker.size();
  const std::string path =
      result.output.substr(at, result.output.find('\n', at) - at);
  CommandResult check = RunTool("check-metrics " + path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
}

TEST_F(RvmutlTest, WatchExportsSpansWithCrossShardTrees) {
  const std::string spans_path = (dir_ / "spans.jsonl").string();
  const std::string chrome_path = (dir_ / "spans-chrome.json").string();
  CommandResult result =
      RunTool("watch --txns=60 --interval-ms=50 --threads=2 --shards=2 "
              "--sample=1 --slow-us=1 --spans=" +
              spans_path + " --chrome=" + chrome_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("60 committed;"), std::string::npos)
      << "--txns=N stops after exactly N commits:\n"
      << result.output;
  CommandResult check = RunTool("check-json " + spans_path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  std::FILE* in = std::fopen(spans_path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  std::string spans;
  char buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), in)) > 0;) {
    spans.append(buffer, n);
  }
  std::fclose(in);
  // The multi-shard mix commits across shards through the internal 2PC.
  EXPECT_NE(spans.find("\"kind\":\"2pc-prepare\""), std::string::npos);
  EXPECT_NE(spans.find("\"kind\":\"2pc-decision\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(chrome_path));
}

// Numeric flags parse strictly: a malformed value is a usage error (exit 2
// with a message), never an abort, a wrapped count or a truncated width.
TEST_F(RvmutlTest, NonNumericFlagIsAUsageError) {
  CommandResult result = RunTool("watch --threads=abc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--threads"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, NegativeFlagIsAUsageError) {
  CommandResult result = RunTool("watch --txns=-5 --sample=1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--txns"), std::string::npos) << result.output;
}

TEST_F(RvmutlTest, OutOfRangeFlagIsAUsageError) {
  CommandResult result = RunTool("watch --threads=4294967297");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--threads"), std::string::npos)
      << result.output;
}

TEST_F(RvmutlTest, SloReplayReportsTransitionsAndExitCodes) {
  const std::string rules_path = (dir_ / "rules.slo").string();
  FILE* rules = std::fopen(rules_path.c_str(), "w");
  ASSERT_NE(rules, nullptr);
  std::fputs("rule quarantine quarantined_shards >= 1\n"
             "rule hot_commit commit_p99_us > 100000 for=3\n",
             rules);
  std::fclose(rules);
  const std::string series_path = (dir_ / "series.jsonl").string();
  FILE* series = std::fopen(series_path.c_str(), "w");
  ASSERT_NE(series, nullptr);
  std::fputs(
      "{\"schema\":\"rvm-timeseries-v2\",\"source\":\"test\","
      "\"sample_interval_us\":1000,\"shards\":2}\n"
      "{\"t\":1000,\"gauges\":{\"quarantined_shards\":0}}\n"
      "{\"t\":2000,\"gauges\":{\"quarantined_shards\":1}}\n"
      "{\"t\":3000,\"gauges\":{\"quarantined_shards\":1}}\n"
      "{\"t\":4000,\"gauges\":{\"quarantined_shards\":0}}\n",
      series);
  std::fclose(series);

  // Rules alone parse and print; nothing to replay, exit 0.
  CommandResult parse_only = RunTool("slo --rules=" + rules_path);
  EXPECT_EQ(parse_only.exit_code, 0) << parse_only.output;
  EXPECT_NE(parse_only.output.find("parsed 2 rule(s)"), std::string::npos);

  // A replay with firing transitions exits 1 and shows both edges.
  CommandResult replay =
      RunTool("slo --rules=" + rules_path + " --replay=" + series_path);
  EXPECT_EQ(replay.exit_code, 1) << replay.output;
  EXPECT_NE(replay.output.find("FIRING"), std::string::npos);
  EXPECT_NE(replay.output.find("RESOLVED"), std::string::npos);
  EXPECT_NE(replay.output.find("quarantine"), std::string::npos);

  // --expect-firing turns the expected alert into success, and a rule that
  // never fired into failure.
  CommandResult expected = RunTool("slo --rules=" + rules_path + " --replay=" +
                                   series_path + " --expect-firing=quarantine");
  EXPECT_EQ(expected.exit_code, 0) << expected.output;
  CommandResult unexpected =
      RunTool("slo --rules=" + rules_path + " --replay=" + series_path +
              " --expect-firing=hot_commit");
  EXPECT_EQ(unexpected.exit_code, 1) << unexpected.output;
  EXPECT_NE(unexpected.output.find("never fired"), std::string::npos);

  // Malformed rules are exit 3 (proven-bad input, not a usage slip).
  const std::string bad_rules = (dir_ / "bad.slo").string();
  FILE* bad = std::fopen(bad_rules.c_str(), "w");
  ASSERT_NE(bad, nullptr);
  std::fputs("rule broken >\n", bad);
  std::fclose(bad);
  CommandResult malformed =
      RunTool("slo --rules=" + bad_rules + " --replay=" + series_path);
  EXPECT_EQ(malformed.exit_code, 3) << malformed.output;

  // Missing --rules is a usage error.
  EXPECT_EQ(RunTool("slo --replay=" + series_path).exit_code, 2);
}

}  // namespace
}  // namespace rvm
