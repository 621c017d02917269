#include "src/monitor/exposition.h"

#include <cstdio>
#include <set>

namespace rvm {
namespace {

constexpr char kCounterHelp[] = "Monotonic RVM operation counter.";
constexpr char kGaugeHelp[] = "Point-in-time RVM state gauge.";
constexpr char kHistogramHelp[] =
    "RVM latency distribution in microseconds (power-of-two buckets).";

std::string ShardLabel(uint64_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(index));
  return buf;
}

}  // namespace

MetricsRegistry BuildMetricsRegistry(const RvmStatistics& stats,
                                     const RvmGauges& gauges) {
  MetricsRegistry registry;
  std::set<std::string> counter_names;
  stats.ForEachCounter([&](const char* name, uint64_t value) {
    counter_names.insert(name);
    registry.AddCounter(std::string("rvm_") + name, kCounterHelp, value);
  });
  stats.ForEachHistogram([&](const char* name,
                             const LatencyHistogram& histogram) {
    registry.AddHistogram(std::string("rvm_") + name, kHistogramHelp,
                          histogram.TakeSnapshot());
  });
  gauges.ForEachGauge([&](const char* name, double value) {
    // A handful of signals (slow_commits, checksum_mismatches, poisoned, the
    // scrub totals) ride the gauge map too so the time series and SLO engine
    // see them; in the exposition the counter's `_total` series is already
    // the canonical form, and re-adding the name as a gauge would collide
    // with the counter family. Skip those here.
    if (counter_names.count(name) != 0) {
      return;
    }
    registry.AddGauge(std::string("rvm_") + name, kGaugeHelp, value);
  });
  // Per-shard rows as labeled series. Emitted only when the snapshot carries
  // them (multi-shard instances), mirroring the time-series JSON.
  for (const ShardGauges& shard : gauges.shards) {
    std::vector<MetricLabel> labels = {{"shard", ShardLabel(shard.index)}};
    registry.AddGauge("rvm_shard_log_capacity", kGaugeHelp,
                      static_cast<double>(shard.log_capacity), labels);
    registry.AddGauge("rvm_shard_log_bytes_in_use", kGaugeHelp,
                      static_cast<double>(shard.log_bytes_in_use), labels);
    registry.AddGauge("rvm_shard_appended_lsn", kGaugeHelp,
                      static_cast<double>(shard.appended_lsn), labels);
    registry.AddGauge("rvm_shard_durable_lsn", kGaugeHelp,
                      static_cast<double>(shard.durable_lsn), labels);
    registry.AddGauge("rvm_shard_page_queue_depth", kGaugeHelp,
                      static_cast<double>(shard.page_queue_depth), labels);
    registry.AddGauge("rvm_shard_spool_bytes", kGaugeHelp,
                      static_cast<double>(shard.spool_bytes), labels);
    registry.AddGauge("rvm_shard_records_appended", kGaugeHelp,
                      static_cast<double>(shard.records_appended), labels);
    registry.AddGauge("rvm_shard_forces", kGaugeHelp,
                      static_cast<double>(shard.forces), labels);
    registry.AddGauge("rvm_shard_prepares", kGaugeHelp,
                      static_cast<double>(shard.prepares), labels);
    registry.AddGauge("rvm_shard_truncations", kGaugeHelp,
                      static_cast<double>(shard.truncations), labels);
    registry.AddGauge("rvm_shard_retries", kGaugeHelp,
                      static_cast<double>(shard.retries), labels);
    // 0 ok, 1 retrying, 2 quarantined, 3 repairing (ShardHealth).
    registry.AddGauge("rvm_shard_health", kGaugeHelp,
                      static_cast<double>(shard.health), labels);
  }
  for (const RegionGauges& region : gauges.regions) {
    std::vector<MetricLabel> labels = {{"segment", region.segment_path}};
    registry.AddGauge("rvm_region_pages", kGaugeHelp,
                      static_cast<double>(region.num_pages), labels);
    registry.AddGauge("rvm_region_dirty_pages", kGaugeHelp,
                      static_cast<double>(region.dirty_pages), labels);
    registry.AddGauge("rvm_region_queued_pages", kGaugeHelp,
                      static_cast<double>(region.queued_pages), labels);
    registry.AddGauge("rvm_region_reserved_pages", kGaugeHelp,
                      static_cast<double>(region.reserved_pages), labels);
    registry.AddGauge("rvm_region_active_transactions", kGaugeHelp,
                      static_cast<double>(region.active_transactions), labels);
  }
  return registry;
}

std::string RenderMetricsText(const RvmStatistics& stats,
                              const RvmGauges& gauges) {
  return BuildMetricsRegistry(stats, gauges).RenderOpenMetrics();
}

std::map<std::string, double> SloSignals(const RvmGauges& gauges) {
  std::map<std::string, double> signals;
  gauges.ForEachGauge([&](const char* name, double value) {
    signals[name] = value;
  });
  return signals;
}

}  // namespace rvm
