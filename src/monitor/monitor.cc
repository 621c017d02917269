#include "src/monitor/monitor.h"

#include <utility>

#include "src/monitor/exposition.h"
#include "src/monitor/metrics.h"
#include "src/util/logging.h"

namespace rvm {

StatusOr<std::unique_ptr<RvmMonitor>> RvmMonitor::Create(
    RvmInstance& rvm, Env* env, MonitorOptions options) {
  if (options.http_port > 65535) {
    return InvalidArgument("http_port must be at most 65535");
  }
  std::unique_ptr<SloEngine> slo;
  if (!options.slo_rules.empty()) {
    RVM_ASSIGN_OR_RETURN(std::vector<SloRule> rules,
                         ParseSloRules(options.slo_rules));
    slo = std::make_unique<SloEngine>(std::move(rules));
  }
  std::unique_ptr<RvmMonitor> monitor(
      new RvmMonitor(rvm, env != nullptr ? env : GetRealEnv(),
                     std::move(options.export_path), std::move(slo)));
  if (options.http_port >= 0) {
    RVM_ASSIGN_OR_RETURN(
        monitor->http_,
        HttpServer::Start(static_cast<uint16_t>(options.http_port),
                          [raw = monitor.get()](const HttpRequest& request) {
                            return raw->HandleHttp(request);
                          }));
  }
  return monitor;
}

RvmMonitor::RvmMonitor(RvmInstance& rvm, Env* env, std::string export_path,
                       std::unique_ptr<SloEngine> slo)
    : rvm_(rvm),
      env_(env),
      export_path_(std::move(export_path)),
      sampler_({.sample_capacity = kSampleCapacity,
                .source = "rvm-monitor",
                .shard_count = rvm.log_shards()}),
      slo_(std::move(slo)) {}

RvmMonitor::~RvmMonitor() {
  // The handlers read this monitor and the instance; no scrape may run
  // past either's lifetime.
  if (http_ != nullptr) {
    http_->Stop();
  }
}

void RvmMonitor::Tick() {
  const RvmGauges gauges = rvm_.Introspect();
  const RvmStatistics stats = rvm_.statistics().Snapshot();
  sampler_.Record({.timestamp_us = gauges.timestamp_us,
                   .body = "\"gauges\":" + GaugesJson(gauges) +
                           ",\"counters\":" + StatisticsCountersJson(stats)});
  // One rule pass per sample, over the same signal map the series records.
  if (slo_ != nullptr) {
    for (const SloTransition& transition :
         slo_->Evaluate(gauges.timestamp_us, SloSignals(gauges))) {
      RVM_LOG_WARN("rvm slo rule '%s' %s (value %.3f)",
                   transition.rule.c_str(),
                   transition.firing ? "firing" : "resolved",
                   transition.value);
    }
  }
  // Best-effort: a full disk must not turn a tick into a failure.
  if (!export_path_.empty()) {
    Status exported = WriteFileAtomic(*env_, export_path_,
                                      RenderMetricsText(stats, gauges));
    if (!exported.ok()) {
      RVM_LOG_WARN("metrics export to %s failed: %s", export_path_.c_str(),
                   exported.ToString().c_str());
    }
  }
}

std::string RvmMonitor::RenderMetrics() {
  const RvmGauges gauges = rvm_.Introspect();
  return RenderMetricsText(rvm_.statistics().Snapshot(), gauges);
}

int RvmMonitor::Healthz(std::string* body) {
  const bool is_poisoned = rvm_.poisoned();
  const bool firing = slo_ != nullptr && slo_->any_firing();
  const bool healthy = !is_poisoned && !firing;
  *body = std::string("{\"status\":\"") + (healthy ? "ok" : "unhealthy") +
          "\",\"poisoned\":" + (is_poisoned ? "true" : "false");
  if (slo_ != nullptr) {
    *body += ",\"slo\":" + slo_->StateJson();
  }
  *body += "}\n";
  return healthy ? 200 : 503;
}

int RvmMonitor::port() const {
  return http_ != nullptr ? static_cast<int>(http_->port()) : -1;
}

Status RvmMonitor::DumpTimeseries(const std::string& path) {
  if (sampler_.recorded() == 0) {
    return FailedPrecondition("no samples recorded (Tick first)");
  }
  const std::string document = sampler_.DumpJsonl();
  RVM_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                       env_->Open(path, OpenMode::kTruncate));
  RVM_RETURN_IF_ERROR(file->WriteAt(
      0, std::span<const uint8_t>(
             reinterpret_cast<const uint8_t*>(document.data()),
             document.size())));
  return file->Sync();
}

HttpResponse RvmMonitor::HandleHttp(const HttpRequest& request) {
  HttpResponse response;
  // Query strings are not split off by the listener; tolerate them here so
  // "GET /metrics?format=openmetrics" style scrapes work.
  std::string path = request.path;
  if (size_t query = path.find('?'); query != std::string::npos) {
    path.resize(query);
  }
  if (path == "/metrics") {
    response.content_type = kOpenMetricsContentType;
    response.body = RenderMetrics();
  } else if (path == "/healthz") {
    response.content_type = "application/json";
    response.status_code = Healthz(&response.body);
  } else {
    response.status_code = 404;
    response.body = "not found (try /metrics or /healthz)\n";
  }
  return response;
}

}  // namespace rvm
