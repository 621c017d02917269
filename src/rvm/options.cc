// Up-front validation of initialization options and runtime knobs: a
// misconfigured instance should fail at Initialize/SetOptions with a message
// naming the field, not misbehave (or divide by zero) mid-commit.
#include "src/rvm/options.h"

namespace rvm {

namespace {

// Fractional knobs (thresholds, targets) must land in (0, 1]. Zero would
// make every commit trigger the mechanism; above 1 it never triggers.
bool ValidFraction(double value) { return value > 0.0 && value <= 1.0; }

}  // namespace

Status ValidateRuntimeOptions(const RuntimeOptions& runtime) {
  if (!ValidFraction(runtime.truncation_threshold)) {
    return InvalidArgument("truncation_threshold must be in (0, 1]");
  }
  if (!ValidFraction(runtime.truncation_target)) {
    return InvalidArgument("truncation_target must be in (0, 1]");
  }
  if (runtime.truncation_target > runtime.truncation_threshold) {
    return InvalidArgument(
        "truncation_target must not exceed truncation_threshold");
  }
  if (!ValidFraction(runtime.epoch_critical_fraction)) {
    return InvalidArgument("epoch_critical_fraction must be in (0, 1]");
  }
  if (runtime.incremental_max_steps == 0) {
    return InvalidArgument(
        "incremental_max_steps must be at least 1 (0 would make every "
        "incremental truncation a no-op)");
  }
  // A dwelling leader with batch 0 would satisfy its early-exit predicate
  // immediately but the configuration is meaningless; batch sizes are small
  // integers, so treat absurd values as typos (e.g. a negative value cast
  // through an unsigned type).
  if (runtime.group_commit_max_batch == 0 ||
      runtime.group_commit_max_batch > (1ull << 20)) {
    return InvalidArgument("group_commit_max_batch must be in [1, 2^20]");
  }
  // One minute is far beyond any useful dwell; anything larger is a unit
  // error (seconds where microseconds were meant) or a negative cast.
  if (runtime.group_commit_max_wait_us > 60ull * 1000 * 1000) {
    return InvalidArgument(
        "group_commit_max_wait_us must be at most 60 seconds");
  }
  if (runtime.log_full_retry_limit > 1000) {
    return InvalidArgument("log_full_retry_limit must be at most 1000");
  }
  if (runtime.io_retry_limit > 1000) {
    return InvalidArgument("io_retry_limit must be at most 1000");
  }
  // One second of initial backoff (or ten of cap) is far beyond any
  // transient-error horizon; larger values are unit errors.
  if (runtime.io_retry_backoff_us > 1000 * 1000) {
    return InvalidArgument("io_retry_backoff_us must be at most 1 second");
  }
  if (runtime.io_retry_backoff_max_us > 10ull * 1000 * 1000) {
    return InvalidArgument(
        "io_retry_backoff_max_us must be at most 10 seconds");
  }
  if (runtime.io_retry_backoff_max_us < runtime.io_retry_backoff_us) {
    return InvalidArgument(
        "io_retry_backoff_max_us must be at least io_retry_backoff_us");
  }
  return OkStatus();
}

Status ValidateOptions(const RvmOptions& options) {
  if (options.log_path.empty()) {
    return InvalidArgument("log_path must not be empty");
  }
  if (options.page_size == 0 ||
      (options.page_size & (options.page_size - 1)) != 0) {
    return InvalidArgument("page_size must be a power of two");
  }
  if (options.log_shards < 1) {
    return InvalidArgument("log_shards must be at least 1");
  }
  if (options.log_shards > kMaxLogShards) {
    return InvalidArgument("log_shards must be at most kMaxLogShards (64)");
  }
  if ((options.span_sample_rate > 0 || options.slow_commit_threshold_us > 0) &&
      options.span_ring_capacity == 0) {
    return InvalidArgument(
        "span tracing requires span_ring_capacity > 0 (spans with no ring "
        "to record into)");
  }
  // A million records per shard is a unit error, not a configuration.
  if (options.span_ring_capacity > (1ull << 20)) {
    return InvalidArgument("span_ring_capacity must be at most 2^20");
  }
  return ValidateRuntimeOptions(options.runtime);
}

}  // namespace rvm
