// StatsSampler: the time-series ring of the monitor (DESIGN.md §11). Where
// the histograms summarize a whole run and the event ring captures the last
// few hundred events, the sampler keeps a bounded ring of state samples —
// gauges plus counters — and renders them as an "rvm-timeseries-v2" JSONL
// document (header line + one sample per line; schema and validator in
// src/telemetry/json.h).
//
// The sampler is only a ring: it owns no thread and takes no sample itself.
// RvmMonitor::Tick renders one sample from the instance's public snapshot
// calls and records it here, on whatever cadence its caller ticks.
#ifndef RVM_MONITOR_SAMPLER_H_
#define RVM_MONITOR_SAMPLER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace rvm {

// One time-series sample. `body` is the pre-rendered JSON members of the
// sample line minus the timestamp — e.g. `"gauges":{...},"counters":{...}`
// — so the sampler never needs to understand what it stores.
struct TimeseriesSample {
  uint64_t timestamp_us = 0;
  std::string body;
};

class StatsSampler {
 public:
  struct Options {
    uint64_t sample_capacity = 0;  // ring bound; 0 = disabled
    std::string source;            // header "source" field
    uint64_t shard_count = 1;      // header "shards" field (DESIGN.md §12)
  };

  explicit StatsSampler(Options options);

  bool enabled() const { return options_.sample_capacity != 0; }

  // Appends one sample, evicting the oldest past the capacity bound. No-op
  // when disabled. Thread-safe (a leaf lock).
  void Record(TimeseriesSample sample);

  // Oldest-first copy of the ring.
  std::vector<TimeseriesSample> Samples() const;
  // Samples recorded / evicted by the capacity bound since construction.
  uint64_t recorded() const;
  uint64_t dropped() const;

  // The full rvm-timeseries-v2 JSONL document: header line followed by one
  // line per retained sample. The header's sample_interval_us is 0: samples
  // are taken when the caller ticks, not on a fixed period.
  std::string DumpJsonl() const;

 private:
  const Options options_;

  mutable std::mutex mu_;  // ring + counters; a leaf lock
  std::deque<TimeseriesSample> ring_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace rvm

#endif  // RVM_MONITOR_SAMPLER_H_
