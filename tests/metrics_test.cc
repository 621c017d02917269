// Monitor tests (DESIGN.md §16): the MetricsRegistry OpenMetrics renderer
// and its lint, the SimEnv byte-determinism of the exposition (rendered
// directly and through the monitor's export file), the SLO rule state
// machine (threshold and burn-rate), the /healthz flip on shard quarantine
// and back after RepairShard, RvmMonitor::Create's input checks, the
// RealEnv HTTP endpoints including a stalled client, and the teardown
// races between monitor readers and Terminate (the thread-sanitizer CI job
// hammers these).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/monitor/http.h"
#include "src/monitor/metrics.h"
#include "src/monitor/monitor.h"
#include "src/monitor/slo.h"
#include "src/os/fault_env.h"
#include "src/os/file.h"
#include "src/os/mem_env.h"
#include "src/rvm/rvm.h"
#include "src/util/random.h"

namespace rvm {
namespace {

constexpr uint64_t kPage = 4096;

// ---------------------------------------------------------------------------
// MetricsRegistry rendering + lint

TEST(MetricsRegistryTest, RendersFamiliesInInsertionOrder) {
  MetricsRegistry registry;
  registry.AddCounter("app_requests", "Requests served.", 7);
  registry.AddGauge("app_depth", "Queue depth.", 3.5);
  registry.AddGauge("app_depth", "Queue depth.", 1,
                    {{"shard", "0"}});
  const std::string text = registry.RenderOpenMetrics();
  EXPECT_TRUE(ValidateOpenMetrics(text).ok());
  const size_t requests = text.find("app_requests_total 7");
  const size_t depth = text.find("app_depth 3.5");
  const size_t labeled = text.find("app_depth{shard=\"0\"} 1");
  ASSERT_NE(requests, std::string::npos) << text;
  ASSERT_NE(depth, std::string::npos) << text;
  ASSERT_NE(labeled, std::string::npos) << text;
  EXPECT_LT(requests, depth);
  EXPECT_LT(depth, labeled);
  EXPECT_NE(text.find("# TYPE app_requests counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE app_depth gauge"), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// Property: for arbitrary recorded values, the rendered histogram buckets
// are cumulative, non-decreasing, end in le="+Inf", and the +Inf bucket
// equals the `_count` series — and the whole exposition passes the lint.
TEST(MetricsRegistryTest, HistogramBucketsAreCumulativeForRandomData) {
  for (uint64_t seed : {1ull, 42ull, 977ull, 31337ull}) {
    LatencyHistogram histogram;
    Xoshiro256 rng(seed);
    const uint64_t observations = 1 + rng.Below(500);
    for (uint64_t i = 0; i < observations; ++i) {
      // Spread across many powers of two, including 0 and huge values.
      histogram.Record(i % 7 == 0 ? 0 : rng.Below(uint64_t{1} << 40));
    }
    MetricsRegistry registry;
    registry.AddHistogram("lat_us", "Latency.", histogram.TakeSnapshot());
    const std::string text = registry.RenderOpenMetrics();
    ASSERT_TRUE(ValidateOpenMetrics(text).ok())
        << "seed " << seed << ":\n"
        << text;
    // Re-derive the cumulative property from the rendered text itself.
    uint64_t previous = 0;
    uint64_t inf_count = 0;
    uint64_t count_series = 0;
    bool saw_inf = false;
    size_t pos = 0;
    while ((pos = text.find("lat_us_bucket{le=", pos)) != std::string::npos) {
      const size_t value_at = text.find("} ", pos);
      ASSERT_NE(value_at, std::string::npos);
      const uint64_t cumulative = std::stoull(text.substr(value_at + 2));
      EXPECT_GE(cumulative, previous) << "seed " << seed;
      previous = cumulative;
      if (text.compare(pos, std::strlen("lat_us_bucket{le=\"+Inf\""),
                       "lat_us_bucket{le=\"+Inf\"") == 0) {
        saw_inf = true;
        inf_count = cumulative;
      }
      pos = value_at;
    }
    const size_t count_at = text.find("lat_us_count ");
    ASSERT_NE(count_at, std::string::npos);
    count_series = std::stoull(text.substr(count_at + std::strlen("lat_us_count ")));
    EXPECT_TRUE(saw_inf) << "seed " << seed;
    EXPECT_EQ(inf_count, count_series) << "seed " << seed;
    EXPECT_EQ(count_series, observations) << "seed " << seed;
  }
}

TEST(MetricsLintTest, RejectsStructuralMistakes) {
  // Missing the mandatory # EOF terminator.
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE a counter\na_total 1\n").ok());
  // Counter sample without the _total suffix.
  EXPECT_FALSE(
      ValidateOpenMetrics("# TYPE a counter\na 1\n# EOF\n").ok());
  // Duplicate (name, labels) series.
  EXPECT_FALSE(
      ValidateOpenMetrics("# TYPE g gauge\ng 1\ng 2\n# EOF\n").ok());
  // Histogram buckets that go backwards.
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_count 3\nh_sum 9\n# EOF\n")
                   .ok());
  // The same shapes done right pass.
  EXPECT_TRUE(ValidateOpenMetrics("# TYPE a counter\na_total 1\n"
                                  "# TYPE g gauge\ng 1\n"
                                  "# TYPE h histogram\n"
                                  "h_bucket{le=\"1\"} 3\n"
                                  "h_bucket{le=\"+Inf\"} 3\n"
                                  "h_count 3\nh_sum 2\n# EOF\n")
                  .ok());
}

// ---------------------------------------------------------------------------
// SLO engine

TEST(SloEngineTest, ThresholdRuleFiresResolvesAndRefires) {
  auto rules = ParseSloRules("rule hot latency > 100 for=2\n");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  SloEngine engine(*std::move(rules));

  // One bad sample is not enough with for=2.
  EXPECT_TRUE(engine.Evaluate(1, {{"latency", 250}}).empty());
  EXPECT_FALSE(engine.any_firing());
  // Second consecutive violation fires.
  auto fired = engine.Evaluate(2, {{"latency", 300}});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].firing);
  EXPECT_EQ(fired[0].rule, "hot");
  EXPECT_EQ(fired[0].rule_index, 0u);
  EXPECT_EQ(fired[0].timestamp_us, 2u);
  EXPECT_TRUE(engine.any_firing());
  // Still firing: no new transition.
  EXPECT_TRUE(engine.Evaluate(3, {{"latency", 400}}).empty());
  // First clean sample resolves.
  auto resolved = engine.Evaluate(4, {{"latency", 10}});
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_FALSE(resolved[0].firing);
  EXPECT_FALSE(engine.any_firing());
  // The consecutive counter restarted: two more bad samples re-fire.
  EXPECT_TRUE(engine.Evaluate(5, {{"latency", 500}}).empty());
  auto refired = engine.Evaluate(6, {{"latency", 500}});
  ASSERT_EQ(refired.size(), 1u);
  EXPECT_TRUE(refired[0].firing);
  EXPECT_NE(engine.StateJson().find("\"firing\":true"), std::string::npos);
}

TEST(SloEngineTest, BurnRateRuleTracksSlidingWindowFraction) {
  auto rules = ParseSloRules("rule burn err > 0 window=4 burn=0.5\n");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  SloEngine engine(*std::move(rules));

  // The bad fraction is measured against the full window size (4), so two
  // violations are 0.5 — not above a 0.5 budget — and stay quiet.
  EXPECT_TRUE(engine.Evaluate(1, {{"err", 1}}).empty());  // 1/4 = 0.25
  EXPECT_TRUE(engine.Evaluate(2, {{"err", 1}}).empty());  // 2/4 = 0.50
  // A third violation pushes the fraction to 0.75 > 0.5 and fires.
  auto fired = engine.Evaluate(3, {{"err", 1}});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].firing);
  // One clean sample leaves {1,1,1,0} -> 0.75: still firing, no transition.
  EXPECT_TRUE(engine.Evaluate(4, {{"err", 0}}).empty());
  // A second clean sample washes it to {1,1,0,0} -> 0.50 and resolves.
  auto resolved = engine.Evaluate(5, {{"err", 0}});
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_FALSE(resolved[0].firing);
}

TEST(SloEngineTest, AbsentSignalFreezesRuleState) {
  auto rules = ParseSloRules("rule hot latency > 100\n");
  ASSERT_TRUE(rules.ok());
  SloEngine engine(*std::move(rules));
  ASSERT_EQ(engine.Evaluate(1, {{"latency", 500}}).size(), 1u);
  // Samples without the signal neither resolve nor re-fire.
  EXPECT_TRUE(engine.Evaluate(2, {{"other", 0}}).empty());
  EXPECT_TRUE(engine.any_firing());
  ASSERT_EQ(engine.Evaluate(3, {{"latency", 5}}).size(), 1u);
  EXPECT_FALSE(engine.any_firing());
}

TEST(SloEngineTest, ParserRejectsMalformedRules) {
  EXPECT_FALSE(ParseSloRules("rule broken >\n").ok());
  EXPECT_FALSE(ParseSloRules("rule a x !> 1\n").ok());
  EXPECT_FALSE(ParseSloRules("rule a x > 1 window=4\n").ok());  // burn missing
  EXPECT_FALSE(ParseSloRules("rule a x > 1 for=2 window=4 burn=0.5\n").ok());
  EXPECT_FALSE(ParseSloRules("rule a x > 1\nrule a y > 2\n").ok());  // dup
  auto ok = ParseSloRules("# comment\n\nrule a x >= 1 for=3\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].for_samples, 3u);
}

// ---------------------------------------------------------------------------
// SimEnv exposition determinism

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

// Runs a fixed workload on a fresh MemEnv and returns (exposition rendered
// directly, exposition exported to the metrics file by the monitor tick).
std::pair<std::string, std::string> RunSimExpositionWorkload() {
  MemEnv env;
  EXPECT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  EXPECT_TRUE(rvm.ok()) << rvm.status().ToString();
  MonitorOptions monitor_options;
  monitor_options.export_path = "/metrics.om";
  auto monitor = RvmMonitor::Create(**rvm, &env, monitor_options);
  EXPECT_TRUE(monitor.ok()) << monitor.status().ToString();
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = 16 * kPage;
  EXPECT_TRUE((*rvm)->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);
  for (int i = 0; i < 12; ++i) {
    Transaction txn(**rvm, RestoreMode::kNoRestore);
    EXPECT_TRUE(txn.ok());
    EXPECT_TRUE(txn.SetRange(base + i * 512, 128).ok());
    std::memset(base + i * 512, i + 1, 128);
    EXPECT_TRUE(
        txn.Commit(i % 3 == 0 ? CommitMode::kFlush : CommitMode::kNoFlush)
            .ok());
  }
  (*monitor)->Tick();  // deterministic tick: rewrites /metrics.om atomically
  // The export is rename-based: the scratch file must not linger.
  EXPECT_FALSE(env.Exists("/metrics.om.tmp"));
  std::pair<std::string, std::string> result{(*monitor)->RenderMetrics(),
                                             ReadFileText(&env, "/metrics.om")};
  EXPECT_TRUE((*rvm)->Terminate().ok());
  return result;
}

TEST(SimExpositionTest, RenderedMetricsAreByteIdenticalAcrossRuns) {
  const auto first = RunSimExpositionWorkload();
  const auto second = RunSimExpositionWorkload();
  EXPECT_TRUE(ValidateOpenMetrics(first.first).ok()) << first.first;
  EXPECT_EQ(first.first, second.first);
  // Spot-check the families the scrape dashboards key on.
  EXPECT_NE(first.first.find("rvm_transactions_committed_total 12"),
            std::string::npos)
      << first.first;
  EXPECT_NE(first.first.find("# TYPE rvm_commit_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(first.first.find("rvm_log_utilization "), std::string::npos);
  EXPECT_NE(first.first.find("rvm_region_pages{segment=\"/seg\"} 16"),
            std::string::npos);
}

TEST(SimExpositionTest, ExportedFileMatchesAcrossRunsAndPassesLint) {
  const auto first = RunSimExpositionWorkload();
  const auto second = RunSimExpositionWorkload();
  ASSERT_FALSE(first.second.empty());
  EXPECT_TRUE(ValidateOpenMetrics(first.second).ok()) << first.second;
  EXPECT_EQ(first.second, second.second);
}

TEST(SimExpositionTest, NoDuplicateSeriesBetweenCounterAndGaugeMirrors) {
  // slow_commits / checksum_mismatches / poisoned ride both the counter and
  // the gauge visitors; the exposition must emit each name exactly once
  // (as the counter) or the lint rejects the duplicate family.
  const auto exposition = RunSimExpositionWorkload().first;
  EXPECT_NE(exposition.find("rvm_slow_commits_total "), std::string::npos);
  EXPECT_EQ(exposition.find("# TYPE rvm_slow_commits gauge"),
            std::string::npos);
  EXPECT_NE(exposition.find("rvm_poisoned_total "), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO wiring: /healthz flips on quarantine, recovers after RepairShard

constexpr uint32_t kShards = 4;
constexpr uint64_t kShardedLogSize = kLogDataStart + 64 * 1024;

Status CommitByteTo(RvmInstance& rvm, uint8_t* base, uint8_t value) {
  Transaction txn(rvm, RestoreMode::kRestore);
  if (!txn.ok()) {
    return txn.status();
  }
  Status set = txn.SetRange(base, 1);
  if (!set.ok()) {
    return set;  // RAII abort
  }
  *base = value;
  return txn.Commit(CommitMode::kFlush);
}

TEST(HealthzTest, QuarantineFiresSloAndResolvesAfterRepair) {
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", kShardedLogSize,
                                     /*overwrite=*/false, kShards)
                  .ok());
  FaultInjectionEnv env(&mem);
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  options.log_shards = kShards;
  auto opened = RvmInstance::Initialize(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<RvmInstance> rvm = std::move(*opened);
  MonitorOptions monitor_options;
  monitor_options.slo_rules = "rule quarantine quarantined_shards >= 1\n";
  auto created = RvmMonitor::Create(*rvm, &mem, monitor_options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  RvmMonitor& monitor = **created;
  std::vector<uint8_t*> bases;
  for (uint32_t i = 0; i < kShards; ++i) {
    RegionDescriptor region;
    region.segment_path = "/seg" + std::to_string(i);
    region.length = kPage;
    ASSERT_TRUE(rvm->Map(region).ok());
    bases.push_back(static_cast<uint8_t*>(region.address));
  }
  // Find a region striped onto shard 2 by watching the shard's append count.
  const uint32_t target = 2;
  size_t victim = bases.size();
  for (size_t i = 0; i < bases.size(); ++i) {
    const uint64_t before = rvm->Introspect().shards[target].records_appended;
    ASSERT_TRUE(CommitByteTo(*rvm, bases[i], 0xA5).ok());
    if (rvm->Introspect().shards[target].records_appended > before) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, bases.size()) << "no region stripes onto shard " << target;

  monitor.Tick();
  std::string body;
  EXPECT_EQ(monitor.Healthz(&body), 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"firing\":false"), std::string::npos) << body;

  // Shred the target shard's device; the failed commit quarantines it.
  FaultSpec spec;
  spec.op = FaultOp::kWriteAt;
  spec.sticky = true;
  spec.message = "platter shredded";
  spec.path_substring = ShardLogPath("/log", target);
  env.InjectFault(spec);
  ASSERT_FALSE(CommitByteTo(*rvm, bases[victim], 0x11).ok());
  ASSERT_EQ(rvm->shard_health(target), RvmInstance::ShardHealth::kQuarantined);

  // The SLO engine sees the gauge on the next tick and flips /healthz.
  monitor.Tick();
  EXPECT_EQ(monitor.Healthz(&body), 503);
  EXPECT_NE(body.find("\"status\":\"unhealthy\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"rule\":\"quarantine\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"firing\":true"), std::string::npos) << body;
  // The exposition carries the quarantined shard too.
  const std::string exposition = monitor.RenderMetrics();
  EXPECT_TRUE(ValidateOpenMetrics(exposition).ok());
  EXPECT_NE(exposition.find("rvm_quarantined_shards 1"), std::string::npos)
      << exposition;

  // Online repair heals the shard; the next tick resolves the rule and
  // /healthz returns to 200.
  env.ClearFaults();
  ASSERT_TRUE(rvm->RepairShard(target).ok());
  monitor.Tick();
  EXPECT_EQ(monitor.Healthz(&body), 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"firing\":false"), std::string::npos) << body;
  EXPECT_TRUE(rvm->Terminate().ok());
}

TEST(HealthzTest, PoisonedInstanceReportsUnhealthyAndStillRendersMetrics) {
  MemEnv mem;
  ASSERT_TRUE(RvmInstance::CreateLog(&mem, "/log", 1 << 20).ok());
  FaultInjectionEnv env(&mem);
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto opened = RvmInstance::Initialize(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<RvmInstance> rvm = std::move(*opened);
  RegionDescriptor region;
  region.segment_path = "/seg";
  region.length = kPage;
  ASSERT_TRUE(rvm->Map(region).ok());
  auto* base = static_cast<uint8_t*>(region.address);
  ASSERT_TRUE(CommitByteTo(*rvm, base, 0x01).ok());

  // A single-shard write fault is not containable: the instance poisons.
  FaultSpec spec;
  spec.op = FaultOp::kWriteAt;
  spec.sticky = true;
  spec.message = "dead device";
  env.InjectFault(spec);
  ASSERT_FALSE(CommitByteTo(*rvm, base, 0x02).ok());
  ASSERT_TRUE(rvm->poisoned());

  // A monitor attached after the poison still works: every input it reads
  // is a public snapshot call, not I/O.
  auto monitor = RvmMonitor::Create(*rvm, &mem, {});
  ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
  std::string body;
  EXPECT_EQ((*monitor)->Healthz(&body), 503);
  EXPECT_NE(body.find("\"poisoned\":true"), std::string::npos) << body;
  // Scraping a poisoned instance still works — that is when the operator
  // needs the counters most.
  EXPECT_TRUE(ValidateOpenMetrics((*monitor)->RenderMetrics()).ok());
}

// ---------------------------------------------------------------------------
// RvmMonitor::Create input checks

TEST(MonitorCreateTest, RejectsPortAboveRangeAndMalformedRules) {
  MemEnv env;
  ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
  RvmOptions options;
  options.env = &env;
  options.log_path = "/log";
  auto rvm = RvmInstance::Initialize(options);
  ASSERT_TRUE(rvm.ok()) << rvm.status().ToString();
  MonitorOptions monitor_options;
  monitor_options.http_port = 65536;
  EXPECT_EQ(RvmMonitor::Create(**rvm, &env, monitor_options).status().code(),
            ErrorCode::kInvalidArgument);
  monitor_options.http_port = -1;
  for (const char* rules :
       {"rule broken >\n", "rule a x > 1\nrule a y > 2\n",
        "rule a x > 1 window=4\n"}) {
    monitor_options.slo_rules = rules;
    auto monitor = RvmMonitor::Create(**rvm, &env, monitor_options);
    EXPECT_EQ(monitor.status().code(), ErrorCode::kInvalidArgument) << rules;
  }
  // A well-formed rule is accepted.
  monitor_options.slo_rules = "rule a x > 1\n";
  EXPECT_TRUE(RvmMonitor::Create(**rvm, &env, monitor_options).ok());
}

// ---------------------------------------------------------------------------
// HTTP endpoints (RealEnv only)

// Opens a raw connection to the listener, or -1.
int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Minimal scrape client: one GET, returns the full response text.
std::string HttpGet(uint16_t port, const std::string& request_line) {
  const int fd = ConnectTo(port);
  if (fd < 0) {
    return "";
  }
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

class HttpEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char dir_template[] = "/tmp/rvm_http_test_XXXXXX";
    char* dir = ::mkdtemp(dir_template);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
    const std::string log_path = dir_ + "/log";
    ASSERT_TRUE(
        RvmInstance::CreateLog(GetRealEnv(), log_path, 1 << 20).ok());
    RvmOptions options;
    options.log_path = log_path;
    auto opened = RvmInstance::Initialize(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    rvm_ = std::move(*opened);
    MonitorOptions monitor_options;
    monitor_options.http_port = 0;  // ephemeral
    monitor_options.slo_rules = "rule quarantine quarantined_shards >= 1\n";
    auto monitor = RvmMonitor::Create(*rvm_, /*env=*/nullptr, monitor_options);
    ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
    monitor_ = std::move(*monitor);
    ASSERT_GT(monitor_->port(), 0);
    RegionDescriptor region;
    region.segment_path = dir_ + "/seg";
    region.length = kPage;
    ASSERT_TRUE(rvm_->Map(region).ok());
    base_ = static_cast<uint8_t*>(region.address);
  }

  void TearDown() override {
    monitor_.reset();  // a monitor must not outlive its instance
    if (rvm_ != nullptr) {
      EXPECT_TRUE(rvm_->Terminate().ok());
    }
    const std::string cleanup = "rm -rf " + dir_;
    (void)!std::system(cleanup.c_str());
  }

  uint16_t port() const { return static_cast<uint16_t>(monitor_->port()); }

  std::string dir_;
  std::unique_ptr<RvmInstance> rvm_;
  std::unique_ptr<RvmMonitor> monitor_;
  uint8_t* base_ = nullptr;
};

TEST_F(HttpEndpointTest, MetricsEndpointServesValidOpenMetrics) {
  ASSERT_TRUE(CommitByteTo(*rvm_, base_, 0x42).ok());
  const std::string response = HttpGet(port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find(kOpenMetricsContentType), std::string::npos);
  const std::string body = HttpBody(response);
  EXPECT_TRUE(ValidateOpenMetrics(body).ok()) << body;
  EXPECT_NE(body.find("rvm_transactions_committed_total 1"),
            std::string::npos)
      << body;
  // Query strings are routed like the bare path.
  EXPECT_NE(HttpGet(port(), "GET /metrics?format=openmetrics HTTP/1.1")
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
}

TEST_F(HttpEndpointTest, HealthzAndErrorRoutes) {
  const uint16_t port = this->port();
  const std::string healthz = HttpGet(port, "GET /healthz HTTP/1.1");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("application/json"), std::string::npos);
  EXPECT_NE(HttpBody(healthz).find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(HttpGet(port, "GET /nope HTTP/1.1").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "POST /metrics HTTP/1.1").find("HTTP/1.1 405"),
            std::string::npos);
}

TEST_F(HttpEndpointTest, ScrapesRaceTerminateWithoutCrashing) {
  // Hammer the endpoints from several clients while the instance shuts
  // down: every scrape must either complete or be refused, never crash or
  // hang. Terminate leaves the listener up: a terminated instance is
  // still introspectable, so scrapes keep being answered until the monitor
  // is destroyed.
  const uint16_t port = this->port();
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 3; ++i) {
    scrapers.emplace_back([port, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)HttpGet(port, "GET /metrics HTTP/1.1");
        (void)HttpGet(port, "GET /healthz HTTP/1.1");
      }
    });
  }
  ASSERT_TRUE(CommitByteTo(*rvm_, base_, 0x01).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(rvm_->Terminate().ok());
  stop.store(true);
  for (std::thread& scraper : scrapers) {
    scraper.join();
  }
  monitor_.reset();
  rvm_.reset();
}

TEST_F(HttpEndpointTest, StalledClientNeitherBlocksScrapesNorStop) {
  // A client sends half a request and then holds the connection open. The
  // serial listener must drop it after its bounded read, serve the next
  // client, and stop promptly even while another stalled client is held.
  const int stalled = ConnectTo(port());
  ASSERT_GE(stalled, 0);
  const std::string partial = "GET /metr";
  ASSERT_EQ(::write(stalled, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));

  auto healthz = std::async(std::launch::async, [port = port()] {
    return HttpGet(port, "GET /healthz HTTP/1.1");
  });
  const auto served = healthz.wait_for(std::chrono::seconds(10));
  // Closing the stalled client unblocks a listener without a read bound, so
  // a regression fails here instead of hanging the suite.
  ::close(stalled);
  ASSERT_EQ(served, std::future_status::ready)
      << "a stalled client blocked the next scrape";
  EXPECT_NE(healthz.get().find("HTTP/1.1 200 OK"), std::string::npos);

  const int stalled_again = ConnectTo(port());
  ASSERT_GE(stalled_again, 0);
  ASSERT_EQ(::write(stalled_again, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Destroying the monitor stops the listener. Run it on a helper thread
  // and bound the wait so a hang fails the test instead of the suite.
  RvmMonitor* monitor = monitor_.release();
  auto stopped = std::async(std::launch::async, [monitor] { delete monitor; });
  const auto verdict = stopped.wait_for(std::chrono::seconds(10));
  ::close(stalled_again);
  ASSERT_EQ(verdict, std::future_status::ready)
      << "the listener did not stop while a client was stalled";
}

// ---------------------------------------------------------------------------
// Teardown races (satellite of DESIGN.md §16: the monitor/span/scrape
// readers must race Terminate cleanly under TSan)

TEST(ShutdownRaceTest, SnapshotReadersRaceTerminate) {
  for (int round = 0; round < 8; ++round) {
    MemEnv env;
    ASSERT_TRUE(RvmInstance::CreateLog(&env, "/log", 1 << 20).ok());
    RvmOptions options;
    options.env = &env;
    options.log_path = "/log";
    auto opened = RvmInstance::Initialize(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<RvmInstance> rvm = std::move(*opened);
    MonitorOptions monitor_options;
    monitor_options.export_path = "/metrics.om";
    monitor_options.slo_rules = "rule util log_utilization > 0.99\n";
    auto created = RvmMonitor::Create(*rvm, &env, monitor_options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    RvmMonitor& monitor = **created;
    RegionDescriptor region;
    region.segment_path = "/seg";
    region.length = 4 * kPage;
    ASSERT_TRUE(rvm->Map(region).ok());
    auto* base = static_cast<uint8_t*>(region.address);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(CommitByteTo(*rvm, base, static_cast<uint8_t>(i)).ok());
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int i = 0; i < 4; ++i) {
      readers.emplace_back([&rvm, &monitor, &stop, i] {
        while (!stop.load(std::memory_order_relaxed)) {
          switch (i) {
            case 0:
              (void)monitor.RenderMetrics();
              break;
            case 1: {
              std::string body;
              (void)monitor.Healthz(&body);
              break;
            }
            case 2:
              monitor.Tick();  // the one ticking thread
              break;
            default:
              (void)rvm->Introspect();
              (void)rvm->statistics().Snapshot();
              break;
          }
        }
      });
    }
    // Terminate while the readers and the ticker are mid-flight; every
    // monitor call stays valid on a terminated instance.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(rvm->Terminate().ok());
    stop.store(true);
    for (std::thread& reader : readers) {
      reader.join();
    }
  }
}

TEST(ShutdownRaceTest, ConcurrentHttpServerStopsJoinOnce) {
  for (int round = 0; round < 16; ++round) {
    auto server = HttpServer::Start(
        0, [](const HttpRequest&) { return HttpResponse{200, "text/plain", "ok"}; });
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    HttpServer* raw = server->get();
    std::thread a([raw] { raw->Stop(); });
    std::thread b([raw] { raw->Stop(); });
    a.join();
    b.join();
    server->reset();  // destructor Stop() is the third concurrent-ish caller
  }
}

}  // namespace
}  // namespace rvm
