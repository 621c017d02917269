// The glue between the instance's telemetry visitors and the OpenMetrics
// registry (DESIGN.md §16). src/monitor/metrics.h owns the format; this
// file owns the mapping: every RvmStatistics counter becomes an
// `rvm_<name>` counter family, every RvmGauges scalar an `rvm_<name>`
// gauge, every latency histogram an `rvm_<name>` histogram with cumulative
// power-of-two `le` buckets, and the per-shard / per-region rows become
// labeled series (shard="K", segment="path").
//
// Both the HTTP /metrics endpoint and the file-based exposition
// (MonitorOptions::export_path) render through BuildMetricsRegistry, so
// the two paths are byte-identical given the same snapshot — the property
// the golden determinism test pins on a SimEnv workload.
#ifndef RVM_MONITOR_EXPOSITION_H_
#define RVM_MONITOR_EXPOSITION_H_

#include <map>
#include <string>

#include "src/monitor/metrics.h"
#include "src/rvm/gauges.h"
#include "src/rvm/statistics.h"

namespace rvm {

// Populates a registry from one statistics snapshot plus one gauges
// snapshot. `stats` should be a Snapshot() copy, not the live struct — the
// registry reads every histogram twice (buckets and count/sum).
MetricsRegistry BuildMetricsRegistry(const RvmStatistics& stats,
                                     const RvmGauges& gauges);

// BuildMetricsRegistry + RenderOpenMetrics in one call: the body of a
// /metrics response and of the exposition file.
std::string RenderMetricsText(const RvmStatistics& stats,
                              const RvmGauges& gauges);

// The flat signal map the SLO engine evaluates each monitor tick: every
// scalar gauge under its ForEachGauge name (commit_p99_us,
// log_utilization, quarantined_shards, checksum_mismatches, slow_commits,
// ...). Counters that matter for alerting (slow_commits,
// checksum_mismatches) are mirrored into gauges already, so gauges are the
// complete signal surface — and the same map can be rebuilt offline from a
// recorded time-series sample, which is what `rvmutl slo --replay` does.
std::map<std::string, double> SloSignals(const RvmGauges& gauges);

}  // namespace rvm

#endif  // RVM_MONITOR_EXPOSITION_H_
