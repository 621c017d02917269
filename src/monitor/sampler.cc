#include "src/monitor/sampler.h"

#include <utility>

#include "src/telemetry/json.h"

namespace rvm {

StatsSampler::StatsSampler(Options options) : options_(std::move(options)) {}

void StatsSampler::Record(TimeseriesSample sample) {
  if (!enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ring_.push_back(std::move(sample));
  ++recorded_;
  while (ring_.size() > options_.sample_capacity) {
    ring_.pop_front();
    ++dropped_;
  }
}

std::vector<TimeseriesSample> StatsSampler::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

uint64_t StatsSampler::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t StatsSampler::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string StatsSampler::DumpJsonl() const {
  std::string out = std::string("{\"schema\":\"") + kTimeseriesSchemaVersion +
                    "\",\"source\":\"" + JsonEscape(options_.source) +
                    "\",\"sample_interval_us\":0,\"shards\":" +
                    std::to_string(options_.shard_count) + "}\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const TimeseriesSample& sample : ring_) {
    out += "{\"t\":" + std::to_string(sample.timestamp_us);
    if (!sample.body.empty()) {
      out += ',';
      out += sample.body;
    }
    out += "}\n";
  }
  return out;
}

}  // namespace rvm
