// MetricsRegistry: the live-export half of the telemetry subsystem
// (DESIGN.md §16). The JSON emitters of §10-§11 produce documents for
// offline trajectories; this registry renders the same counters, gauges and
// histograms as OpenMetrics text exposition — the format Prometheus scrapes
// — so a live instance can be monitored without bespoke tooling.
//
// The registry is a flat builder: callers walk their own visitors
// (ForEachCounter / ForEachGauge / ForEachHistogram) and add one sample per
// metric, optionally labeled (e.g. shard="3"). Rendering is deterministic:
// families appear in insertion order, label sets in insertion order, and
// numbers format identically across runs — a fixed SimEnv workload produces
// byte-identical exposition (the property the golden test pins).
//
// This file knows nothing of RvmInstance; the glue that populates a
// registry from RvmStatistics/RvmGauges lives in src/monitor/exposition.h.
#ifndef RVM_MONITOR_METRICS_H_
#define RVM_MONITOR_METRICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/histogram.h"
#include "src/util/status.h"

namespace rvm {

// The content type a /metrics response advertises. Prometheus accepts both
// this and the legacy text/plain format; we emit OpenMetrics 1.0.
inline constexpr char kOpenMetricsContentType[] =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

enum class MetricType { kCounter, kGauge, kHistogram };

struct MetricLabel {
  std::string name;
  std::string value;
};

class MetricsRegistry {
 public:
  // Counters are monotonic totals; rendered as `<name>_total`. Values are
  // kept as integers end to end so large counters never lose precision.
  void AddCounter(std::string_view name, std::string_view help, uint64_t value,
                  std::vector<MetricLabel> labels = {});
  void AddGauge(std::string_view name, std::string_view help, double value,
                std::vector<MetricLabel> labels = {});
  // Renders the power-of-two LatencyHistogram as cumulative `le` buckets
  // (inclusive upper bounds, matching OpenMetrics `le` semantics exactly,
  // since BucketUpperBound is inclusive), a closing `le="+Inf"` bucket, and
  // `_count` / `_sum` series. Interior buckets with no new observations are
  // elided; cumulative counts make that lossless.
  void AddHistogram(std::string_view name, std::string_view help,
                    const LatencyHistogram::Snapshot& snapshot,
                    std::vector<MetricLabel> labels = {});

  // The full exposition: per family a `# HELP` line, a `# TYPE` line and the
  // sample lines, terminated by `# EOF`.
  std::string RenderOpenMetrics() const;

  size_t family_count() const { return families_.size(); }

 private:
  struct Sample {
    std::vector<MetricLabel> labels;
    uint64_t counter_value = 0;
    double gauge_value = 0;
    LatencyHistogram::Snapshot histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kGauge;
    std::vector<Sample> samples;
  };

  // Finds or appends the family; repeated adds with the same name must agree
  // on the type (enforced by the lint, trusted here).
  Family& FamilyFor(std::string_view name, std::string_view help,
                    MetricType type);

  std::vector<Family> families_;
};

// The in-tree OpenMetrics lint backing `rvmutl check-metrics` (and CI's
// smoke job). Validates structure rather than re-implementing the full spec:
// metric and label name charsets, `# TYPE` before samples, sample-name
// suffix rules per type (`_total` for counters; `_bucket`/`_count`/`_sum`
// for histograms), parseable numbers, cumulative non-decreasing histogram
// buckets ending in `le="+Inf"` whose count equals `_count`, no duplicate
// (name, labels) series, and the mandatory final `# EOF` line. Returns
// kInvalidArgument naming the offending line on failure.
Status ValidateOpenMetrics(std::string_view text);

}  // namespace rvm

#endif  // RVM_MONITOR_METRICS_H_
