// RvmGauges: a structured point-in-time view of the instance's log-space and
// pipeline state — the quantities §5.1–§5.3 and Fig. 6–7 reason about but
// RvmStatistics' monotonic counters cannot express. Where counters answer
// "how much work has happened", gauges answer "what does the instance look
// like right now": log head/tail geometry, utilization, how many bytes a
// truncation could reclaim, queue depths, and per-region page-vector state.
//
// Produced by RvmInstance::Introspect() under the staged locks, consumed by
// the monitor's time series and exposition (src/monitor/), `rvmutl watch`,
// and tests. The flat numeric
// JSON rendering (GaugesJson) is the "gauges" member of every
// rvm-timeseries-v2 sample line.
#ifndef RVM_RVM_GAUGES_H_
#define RVM_RVM_GAUGES_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/telemetry/json.h"

namespace rvm {

// Page-vector state of one mapped region (Fig. 7). "reserved" pages are
// those an incremental truncation must skip: they carry uncommitted or
// committed-but-unflushed changes (PageEntry::write_blocked).
struct RegionGauges {
  std::string segment_path;
  uint64_t segment_offset = 0;
  uint64_t length = 0;
  uint64_t num_pages = 0;
  uint64_t dirty_pages = 0;        // committed changes not yet in the segment
  uint64_t queued_pages = 0;       // present in the page queue
  uint64_t uncommitted_pages = 0;  // pages with uncommitted_refs > 0
  uint64_t reserved_pages = 0;     // write-blocked (uncommitted or unflushed)
  uint64_t active_transactions = 0;
};

// One log shard's slice of the snapshot (DESIGN.md §12). On a multi-shard
// instance the top-level log gauges are aggregates (capacities and depths
// summed, geometry from shard 0); the per-shard rows carry the detail.
struct ShardGauges {
  uint64_t index = 0;
  uint64_t log_capacity = 0;
  uint64_t log_head = 0;
  uint64_t log_tail = 0;
  uint64_t log_wrapped = 0;
  uint64_t log_bytes_in_use = 0;
  uint64_t appended_lsn = 0;
  uint64_t durable_lsn = 0;
  uint64_t page_queue_depth = 0;
  uint64_t spool_entries = 0;
  uint64_t spool_bytes = 0;
  uint64_t group_waiters = 0;
  uint64_t group_leader_active = 0;
  uint64_t records_appended = 0;
  uint64_t forces = 0;
  uint64_t prepares = 0;  // cross-shard 2PC prepare records
  uint64_t truncations = 0;
  uint64_t poisoned = 0;
  // Transient-I/O retry attempts on this shard's device (DESIGN.md §13).
  uint64_t retries = 0;
  // Fault-domain state: 0 = ok, 1 = retrying (a transient-retry loop is in
  // flight right now), 2 = quarantined, 3 = repairing. `rvmutl health`
  // renders these and derives its exit code from the worst shard.
  uint64_t health = 0;
};

struct RvmGauges {
  uint64_t timestamp_us = 0;

  // Log geometry (absolute file offsets; the record area starts after the
  // two status blocks). wrapped is 1 when the live range crosses the end of
  // the area, i.e. tail < head in file order. With log_shards > 1 capacity,
  // bytes-in-use, LSNs and depths are sums across shards and the geometry
  // fields describe shard 0; see `shards` for the full picture.
  uint64_t log_capacity = 0;
  uint64_t log_head = 0;
  uint64_t log_tail = 0;
  uint64_t log_wrapped = 0;
  uint64_t log_bytes_in_use = 0;
  double log_utilization = 0;  // bytes in use / capacity, 0..1
  // Live bytes between the head and the first record whose page is
  // write-blocked — what an incremental truncation could reclaim right now
  // without falling back to an epoch (§5.1.2). Equals bytes in use when
  // nothing blocks.
  uint64_t log_reclaimable_bytes = 0;
  uint64_t appended_lsn = 0;
  uint64_t durable_lsn = 0;

  // Pipeline depths.
  uint64_t page_queue_depth = 0;
  uint64_t spool_entries = 0;
  uint64_t spool_bytes = 0;
  uint64_t open_transactions = 0;
  uint64_t group_waiters = 0;
  uint64_t group_leader_active = 0;
  // truncations_started - truncations_completed at the snapshot instant.
  uint64_t truncations_in_flight = 0;
  uint64_t poisoned = 0;
  uint64_t log_shards = 1;

  // Data-segment integrity (DESIGN.md §14): cumulative scrub/verify
  // progress, mirrored from the statistics counters so one timeseries
  // sample shows both the scan rate and whether mismatches are being
  // repaired or escalating to quarantine.
  uint64_t pages_scrubbed = 0;
  uint64_t checksum_mismatches = 0;
  uint64_t pages_repaired = 0;
  uint64_t pages_quarantined = 0;

  // Span tracing (DESIGN.md §15): commits that blew the slow-commit
  // threshold, spans recorded across every shard ring, and spans lost to
  // ring wrap-around. All zero when span tracing is disabled.
  uint64_t slow_commits = 0;
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;

  // Shards currently in quarantine (ShardHealth::kQuarantined), so health
  // rules need not walk the per-shard rows. 0 on single-shard instances.
  uint64_t quarantined_shards = 0;

  // Derived commit-latency percentiles, interpolated from the cumulative
  // commit_latency_us histogram at snapshot time (DESIGN.md §16). Carried as
  // gauges so the time series, the OpenMetrics exposition, and the SLO
  // signal map all see the same number under the same name — which is what
  // lets `rvmutl slo --replay` re-evaluate commit-p99 rules offline.
  double commit_p50_us = 0;
  double commit_p90_us = 0;
  double commit_p99_us = 0;

  std::vector<RegionGauges> regions;
  // Per-shard rows; empty on a single-shard instance (whose snapshot is
  // fully described by the top-level gauges, keeping its JSON unchanged).
  std::vector<ShardGauges> shards;

  // Totals across regions, so consumers that only want one number per
  // dimension need not walk the region list.
  uint64_t total_dirty_pages() const {
    uint64_t n = 0;
    for (const RegionGauges& r : regions) {
      n += r.dirty_pages;
    }
    return n;
  }
  uint64_t total_reserved_pages() const {
    uint64_t n = 0;
    for (const RegionGauges& r : regions) {
      n += r.reserved_pages;
    }
    return n;
  }

  // Visits every scalar gauge as (name, value): the keys of the flat
  // "gauges" object in a time-series sample. Per-region detail is emitted
  // separately (see GaugesJson).
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    fn("log_capacity", static_cast<double>(log_capacity));
    fn("log_head", static_cast<double>(log_head));
    fn("log_tail", static_cast<double>(log_tail));
    fn("log_wrapped", static_cast<double>(log_wrapped));
    fn("log_bytes_in_use", static_cast<double>(log_bytes_in_use));
    fn("log_utilization", log_utilization);
    fn("log_reclaimable_bytes", static_cast<double>(log_reclaimable_bytes));
    fn("appended_lsn", static_cast<double>(appended_lsn));
    fn("durable_lsn", static_cast<double>(durable_lsn));
    fn("page_queue_depth", static_cast<double>(page_queue_depth));
    fn("spool_entries", static_cast<double>(spool_entries));
    fn("spool_bytes", static_cast<double>(spool_bytes));
    fn("open_transactions", static_cast<double>(open_transactions));
    fn("group_waiters", static_cast<double>(group_waiters));
    fn("group_leader_active", static_cast<double>(group_leader_active));
    fn("truncations_in_flight", static_cast<double>(truncations_in_flight));
    fn("dirty_pages", static_cast<double>(total_dirty_pages()));
    fn("reserved_pages", static_cast<double>(total_reserved_pages()));
    fn("poisoned", static_cast<double>(poisoned));
    fn("log_shards", static_cast<double>(log_shards));
    fn("pages_scrubbed", static_cast<double>(pages_scrubbed));
    fn("checksum_mismatches", static_cast<double>(checksum_mismatches));
    fn("pages_repaired", static_cast<double>(pages_repaired));
    fn("pages_quarantined", static_cast<double>(pages_quarantined));
    fn("slow_commits", static_cast<double>(slow_commits));
    fn("spans_recorded", static_cast<double>(spans_recorded));
    fn("spans_dropped", static_cast<double>(spans_dropped));
    fn("quarantined_shards", static_cast<double>(quarantined_shards));
    fn("commit_p50_us", commit_p50_us);
    fn("commit_p90_us", commit_p90_us);
    fn("commit_p99_us", commit_p99_us);
  }
};

// The gauges as one flat JSON object of numbers plus a "regions" array —
// the "gauges" member of an rvm-timeseries-v2 sample line.
inline std::string GaugesJson(const RvmGauges& gauges) {
  char buf[192];
  std::string out = "{";
  bool first = true;
  gauges.ForEachGauge([&](const char* name, double value) {
    // Integral gauges render without a fraction so documents diff cleanly.
    if (value == static_cast<double>(static_cast<uint64_t>(value))) {
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%.6f", value);
    }
    out += (first ? "\"" : ",\"") + std::string(name) + "\":" + buf;
    first = false;
  });
  out += ",\"regions\":[";
  for (size_t i = 0; i < gauges.regions.size(); ++i) {
    const RegionGauges& r = gauges.regions[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"segment\":\"" + JsonEscape(r.segment_path) + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"pages\":%llu,\"dirty\":%llu,\"queued\":%llu,"
                  "\"uncommitted\":%llu,\"reserved\":%llu,\"txns\":%llu}",
                  static_cast<unsigned long long>(r.num_pages),
                  static_cast<unsigned long long>(r.dirty_pages),
                  static_cast<unsigned long long>(r.queued_pages),
                  static_cast<unsigned long long>(r.uncommitted_pages),
                  static_cast<unsigned long long>(r.reserved_pages),
                  static_cast<unsigned long long>(r.active_transactions));
    out += buf;
  }
  out += ']';
  if (!gauges.shards.empty()) {
    out += ",\"shards\":[";
    for (size_t i = 0; i < gauges.shards.size(); ++i) {
      const ShardGauges& s = gauges.shards[i];
      if (i > 0) {
        out += ',';
      }
      std::snprintf(buf, sizeof(buf),
                    "{\"shard\":%llu,\"capacity\":%llu,\"bytes_in_use\":%llu,"
                    "\"head\":%llu,\"tail\":%llu,\"wrapped\":%llu,",
                    static_cast<unsigned long long>(s.index),
                    static_cast<unsigned long long>(s.log_capacity),
                    static_cast<unsigned long long>(s.log_bytes_in_use),
                    static_cast<unsigned long long>(s.log_head),
                    static_cast<unsigned long long>(s.log_tail),
                    static_cast<unsigned long long>(s.log_wrapped));
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    "\"appended_lsn\":%llu,\"durable_lsn\":%llu,"
                    "\"page_queue\":%llu,\"spool_entries\":%llu,"
                    "\"spool_bytes\":%llu,\"group_waiters\":%llu,"
                    "\"leader\":%llu,",
                    static_cast<unsigned long long>(s.appended_lsn),
                    static_cast<unsigned long long>(s.durable_lsn),
                    static_cast<unsigned long long>(s.page_queue_depth),
                    static_cast<unsigned long long>(s.spool_entries),
                    static_cast<unsigned long long>(s.spool_bytes),
                    static_cast<unsigned long long>(s.group_waiters),
                    static_cast<unsigned long long>(s.group_leader_active));
      out += buf;
      std::snprintf(buf, sizeof(buf),
                    "\"records\":%llu,\"forces\":%llu,\"prepares\":%llu,"
                    "\"truncations\":%llu,\"poisoned\":%llu,"
                    "\"retries\":%llu,\"health\":%llu}",
                    static_cast<unsigned long long>(s.records_appended),
                    static_cast<unsigned long long>(s.forces),
                    static_cast<unsigned long long>(s.prepares),
                    static_cast<unsigned long long>(s.truncations),
                    static_cast<unsigned long long>(s.poisoned),
                    static_cast<unsigned long long>(s.retries),
                    static_cast<unsigned long long>(s.health));
      out += buf;
    }
    out += ']';
  }
  out += '}';
  return out;
}

// Human-readable rendering for `rvmutl top`.
inline std::string FormatGauges(const RvmGauges& gauges) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "log   %10llu / %llu bytes (%5.1f%% used)  head=%llu "
                "tail=%llu%s\n",
                static_cast<unsigned long long>(gauges.log_bytes_in_use),
                static_cast<unsigned long long>(gauges.log_capacity),
                gauges.log_utilization * 100.0,
                static_cast<unsigned long long>(gauges.log_head),
                static_cast<unsigned long long>(gauges.log_tail),
                gauges.log_wrapped != 0 ? " (wrapped)" : "");
  out += line;
  std::snprintf(line, sizeof(line),
                "      reclaimable=%llu  lsn appended=%llu durable=%llu\n",
                static_cast<unsigned long long>(gauges.log_reclaimable_bytes),
                static_cast<unsigned long long>(gauges.appended_lsn),
                static_cast<unsigned long long>(gauges.durable_lsn));
  out += line;
  std::snprintf(
      line, sizeof(line),
      "queues page=%llu spool=%llu (%llu bytes) group=%llu%s txns=%llu "
      "trunc-in-flight=%llu%s\n",
      static_cast<unsigned long long>(gauges.page_queue_depth),
      static_cast<unsigned long long>(gauges.spool_entries),
      static_cast<unsigned long long>(gauges.spool_bytes),
      static_cast<unsigned long long>(gauges.group_waiters),
      gauges.group_leader_active != 0 ? "+leader" : "",
      static_cast<unsigned long long>(gauges.open_transactions),
      static_cast<unsigned long long>(gauges.truncations_in_flight),
      gauges.poisoned != 0 ? "  POISONED" : "");
  out += line;
  if (gauges.pages_scrubbed != 0 || gauges.checksum_mismatches != 0 ||
      gauges.pages_repaired != 0 || gauges.pages_quarantined != 0) {
    std::snprintf(
        line, sizeof(line),
        "scrub  pages=%llu mismatches=%llu repaired=%llu quarantined=%llu\n",
        static_cast<unsigned long long>(gauges.pages_scrubbed),
        static_cast<unsigned long long>(gauges.checksum_mismatches),
        static_cast<unsigned long long>(gauges.pages_repaired),
        static_cast<unsigned long long>(gauges.pages_quarantined));
    out += line;
  }
  if (gauges.spans_recorded != 0 || gauges.slow_commits != 0) {
    std::snprintf(line, sizeof(line),
                  "spans  recorded=%llu dropped=%llu slow-commits=%llu\n",
                  static_cast<unsigned long long>(gauges.spans_recorded),
                  static_cast<unsigned long long>(gauges.spans_dropped),
                  static_cast<unsigned long long>(gauges.slow_commits));
    out += line;
  }
  for (const ShardGauges& s : gauges.shards) {
    const char* health_marker = "";
    if (s.health == 1) {
      health_marker = "  RETRYING";
    } else if (s.health == 2) {
      health_marker = "  QUARANTINED";
    } else if (s.health == 3) {
      health_marker = "  REPAIRING";
    } else if (s.poisoned != 0) {
      health_marker = "  POISONED";
    }
    std::snprintf(
        line, sizeof(line),
        "shard %2llu  %10llu / %llu bytes  head=%llu tail=%llu%s  "
        "records=%llu forces=%llu prepares=%llu trunc=%llu retries=%llu%s\n",
        static_cast<unsigned long long>(s.index),
        static_cast<unsigned long long>(s.log_bytes_in_use),
        static_cast<unsigned long long>(s.log_capacity),
        static_cast<unsigned long long>(s.log_head),
        static_cast<unsigned long long>(s.log_tail),
        s.log_wrapped != 0 ? " (wrapped)" : "",
        static_cast<unsigned long long>(s.records_appended),
        static_cast<unsigned long long>(s.forces),
        static_cast<unsigned long long>(s.prepares),
        static_cast<unsigned long long>(s.truncations),
        static_cast<unsigned long long>(s.retries), health_marker);
    out += line;
  }
  for (const RegionGauges& r : gauges.regions) {
    std::snprintf(line, sizeof(line),
                  "region %-32s pages=%llu dirty=%llu queued=%llu "
                  "uncommitted=%llu reserved=%llu txns=%llu\n",
                  r.segment_path.c_str(),
                  static_cast<unsigned long long>(r.num_pages),
                  static_cast<unsigned long long>(r.dirty_pages),
                  static_cast<unsigned long long>(r.queued_pages),
                  static_cast<unsigned long long>(r.uncommitted_pages),
                  static_cast<unsigned long long>(r.reserved_pages),
                  static_cast<unsigned long long>(r.active_transactions));
    out += line;
  }
  return out;
}

}  // namespace rvm

#endif  // RVM_RVM_GAUGES_H_
