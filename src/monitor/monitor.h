// RvmMonitor: the operations surface, layered above the core (DESIGN.md
// §16). The paper keeps RVM small by building in a layer above it anything
// that need not be inside it (§3.1, §8); monitoring is such a layer. The
// monitor reads only the instance's public calls — Introspect(),
// statistics().Snapshot() and poisoned() — and from them builds:
//
//   - the time series (DESIGN.md §11): one gauges+counters sample per Tick
//     in a bounded ring, dumped as an rvm-timeseries-v2 document;
//   - the SLO engine: one rule pass per Tick over the same signal map;
//   - the OpenMetrics exposition, rewritten atomically to export_path on
//     every Tick and served by an optional HTTP listener with /healthz.
//
// There is no sampling thread: the caller ticks, at whatever cadence it
// wants (rvmutl watch once per refresh, simulated runs by hand). A caller
// that wants no monitoring creates no monitor.
//
//   MonitorOptions options;
//   options.export_path = "metrics.om";
//   auto monitor = RvmMonitor::Create(*rvm, env, options);
//   (*monitor)->Tick();  // once per refresh, on the caller's cadence
//   (*monitor)->DumpTimeseries("series.jsonl");
#ifndef RVM_MONITOR_MONITOR_H_
#define RVM_MONITOR_MONITOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/monitor/http.h"
#include "src/monitor/sampler.h"
#include "src/monitor/slo.h"
#include "src/os/file.h"
#include "src/rvm/rvm.h"
#include "src/util/status.h"

namespace rvm {

struct MonitorOptions {
  // When nonempty, every Tick rewrites this file with the full OpenMetrics
  // exposition, atomically (temp file + rename), so a reader always sees a
  // complete document. The simulated-env equivalent of a scrape.
  std::string export_path;
  // TCP port for the HTTP listener serving GET /metrics and GET /healthz on
  // 127.0.0.1. -1 disables it; 0 binds an ephemeral port (read it back
  // with port()).
  int32_t http_port = -1;
  // Declarative SLO rules (grammar in src/monitor/slo.h), e.g.
  // "rule p99 commit_p99_us > 50000 for=3". Empty disables the engine.
  std::string slo_rules;
};

// A monitor must not outlive the instance it watches: destroy it (which
// stops the listener) before the instance. Every method works on a
// terminated or poisoned instance, whose gauges are still readable.
class RvmMonitor {
 public:
  // Samples kept in the time-series ring; older samples are evicted.
  static constexpr uint64_t kSampleCapacity = 4096;

  // `env` is the environment the export file and dumps are written through
  // (nullptr means the real one). kInvalidArgument for a port above 65535
  // or malformed rules; kIoError when the listener cannot bind.
  static StatusOr<std::unique_ptr<RvmMonitor>> Create(RvmInstance& rvm,
                                                       Env* env,
                                                       MonitorOptions options);

  ~RvmMonitor();  // stops the listener
  RvmMonitor(const RvmMonitor&) = delete;
  RvmMonitor& operator=(const RvmMonitor&) = delete;

  // One sample into the ring, one SLO pass (each transition logged), and
  // the export-file rewrite. Call from one thread at a time.
  void Tick();

  // The full OpenMetrics exposition from a fresh snapshot: the body of a
  // GET /metrics scrape and of the export file.
  std::string RenderMetrics();
  // Writes a small JSON body into `*body` and returns the HTTP status a
  // /healthz probe serves: 200 when healthy, 503 when the instance is
  // poisoned or any SLO rule is firing. The body carries "status",
  // "poisoned" and, with rules configured, the per-rule "slo" state.
  int Healthz(std::string* body);
  // The listener's bound port, or -1 without a listener.
  int port() const;

  // Writes the ring as an rvm-timeseries-v2 JSONL document to `path`.
  // kFailedPrecondition before the first Tick.
  Status DumpTimeseries(const std::string& path);

 private:
  RvmMonitor(RvmInstance& rvm, Env* env, std::string export_path,
             std::unique_ptr<SloEngine> slo);

  HttpResponse HandleHttp(const HttpRequest& request);

  RvmInstance& rvm_;
  Env* const env_;
  const std::string export_path_;
  StatsSampler sampler_;
  std::unique_ptr<SloEngine> slo_;  // null without rules
  std::unique_ptr<HttpServer> http_;  // null without a listener
};

}  // namespace rvm

#endif  // RVM_MONITOR_MONITOR_H_
