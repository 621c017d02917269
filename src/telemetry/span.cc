#include "src/telemetry/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/telemetry/json.h"

namespace rvm {
namespace {

// Completion order: the order the events were recorded in.
bool EndsBefore(const Span& a, const Span& b) {
  return a.end_us != b.end_us ? a.end_us < b.end_us : a.span_id < b.span_id;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCommit:
      return "commit";
    case SpanKind::kQueueWait:
      return "queue-wait";
    case SpanKind::kAppend:
      return "append";
    case SpanKind::kDwell:
      return "dwell";
    case SpanKind::kForce:
      return "force";
    case SpanKind::kAck:
      return "ack";
    case SpanKind::kTwoPcPrepare:
      return "2pc-prepare";
    case SpanKind::kTwoPcDecision:
      return "2pc-decision";
    case SpanKind::kTruncation:
      return "truncation";
    case SpanKind::kRecoveryScan:
      return "recovery-scan";
    case SpanKind::kRecoveryApply:
      return "recovery-apply";
    case SpanKind::kStatusWrite:
      return "status-write";
    case SpanKind::kTerminate:
      return "terminate";
    case SpanKind::kTxnBegin:
      return "txn-begin";
    case SpanKind::kSetRange:
      return "set-range";
    case SpanKind::kTruncationStep:
      return "truncation-step";
    case SpanKind::kIoError:
      return "io-error";
    case SpanKind::kPoison:
      return "poison";
    case SpanKind::kShardQuarantine:
      return "shard-quarantine";
    case SpanKind::kShardRepair:
      return "shard-repair";
    case SpanKind::kScrub:
      return "scrub";
    case SpanKind::kChecksumMismatch:
      return "checksum-mismatch";
    case SpanKind::kPageRepair:
      return "page-repair";
  }
  return "unknown";
}

std::string SpanJson(const Span& span) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"span_id\":%" PRIu64 ",\"parent_id\":%" PRIu64
                ",\"tid\":%" PRIu64
                ",\"kind\":\"%s\",\"shard\":%u,\"start_us\":%" PRIu64
                ",\"end_us\":%" PRIu64 ",\"arg\":%" PRIu64 "}",
                span.span_id, span.parent_id, span.tid,
                SpanKindName(span.kind), span.shard, span.start_us,
                span.end_us, span.arg);
  return line;
}

std::string SpansJsonl(const std::vector<Span>& spans,
                       const std::string& source, uint32_t shards) {
  std::string out = "{\"schema\":\"";
  out += kSpansSchemaVersion;
  out += "\",\"source\":\"" + JsonEscape(source) + "\",\"shards\":" +
         std::to_string(shards) + "}\n";
  for (const Span& span : spans) {
    out += SpanJson(span);
    out += '\n';
  }
  return out;
}

std::string SpansToChromeTrace(const std::vector<Span>& spans,
                               uint32_t shards) {
  std::string out = "{\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"rvm\"}}";
  for (uint32_t shard = 0; shard < shards; ++shard) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"shard %u\"}}",
                  shard, shard);
    out += line;
  }
  for (const Span& span : spans) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  ",{\"name\":\"%s\",\"cat\":\"rvm\",\"ph\":\"X\",\"ts\":%" PRIu64
                  ",\"dur\":%" PRIu64 ",\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"tid\":%" PRIu64 ",\"span_id\":%" PRIu64
                  ",\"parent_id\":%" PRIu64 ",\"arg\":%" PRIu64 "}}",
                  SpanKindName(span.kind), span.start_us,
                  span.end_us > span.start_us ? span.end_us - span.start_us
                                              : 0,
                  span.shard, span.tid, span.span_id, span.parent_id,
                  span.arg);
    out += line;
  }
  // 2PC flow arrows: each participant prepare flows into the coordinator
  // decision carrying the same transaction id. The flow id is the prepare's
  // span id, unique per (decision, participant) pair.
  for (const Span& decision : spans) {
    if (decision.kind != SpanKind::kTwoPcDecision) continue;
    for (const Span& prepare : spans) {
      if (prepare.kind != SpanKind::kTwoPcPrepare ||
          prepare.tid != decision.tid) {
        continue;
      }
      const uint64_t arrive_us = decision.start_us >= prepare.end_us
                                     ? decision.start_us
                                     : prepare.end_us;
      char line[320];
      std::snprintf(line, sizeof(line),
                    ",{\"name\":\"2pc\",\"cat\":\"rvm\",\"ph\":\"s\","
                    "\"id\":%" PRIu64 ",\"pid\":1,\"tid\":%u,\"ts\":%" PRIu64
                    "},{\"name\":\"2pc\",\"cat\":\"rvm\",\"ph\":\"f\","
                    "\"bp\":\"e\",\"id\":%" PRIu64
                    ",\"pid\":1,\"tid\":%u,\"ts\":%" PRIu64 "}",
                    prepare.span_id, prepare.shard, prepare.end_us,
                    prepare.span_id, decision.shard, arrive_us);
      out += line;
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

SpanRing::SpanRing(size_t capacity)
    : capacity_(capacity),
      slots_(capacity == 0 ? nullptr : new Slot[capacity]) {}

void SpanRing::Record(const Span& span) {
  if (capacity_ == 0) {
    next_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % capacity_];
  // Seqlock write protocol (Boehm, "Can seqlocks get along with programming
  // language memory models?"): odd marker, release fence, payload, even
  // release store. The payload fields are themselves atomic, so a reader
  // racing a wrap-around sees a stale value, never undefined behavior.
  // The odd marker is claimed, not stored: if the ring wrapped onto a slot
  // whose previous writer is still mid-payload, that writer would finish
  // its stores under this one's even marker and a reader could accept the
  // mix. The newer record is dropped instead (it would have been
  // overwritten within one more wrap anyway).
  uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  if ((seen & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seen, 2 * ticket + 1,
                                        std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.span_id.store(span.span_id, std::memory_order_relaxed);
  slot.parent_id.store(span.parent_id, std::memory_order_relaxed);
  slot.tid.store(span.tid, std::memory_order_relaxed);
  slot.kind_shard.store(static_cast<uint64_t>(span.kind) |
                            (static_cast<uint64_t>(span.shard) << 8),
                        std::memory_order_relaxed);
  slot.start_us.store(span.start_us, std::memory_order_relaxed);
  slot.end_us.store(span.end_us, std::memory_order_relaxed);
  slot.arg.store(span.arg, std::memory_order_relaxed);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<Span> SpanRing::Snapshot() const {
  std::vector<Span> out;
  if (capacity_ == 0) return out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before == 0 || (seq_before & 1) != 0) continue;
    Span span;
    span.span_id = slot.span_id.load(std::memory_order_relaxed);
    span.parent_id = slot.parent_id.load(std::memory_order_relaxed);
    span.tid = slot.tid.load(std::memory_order_relaxed);
    const uint64_t kind_shard =
        slot.kind_shard.load(std::memory_order_relaxed);
    span.kind = static_cast<SpanKind>(kind_shard & 0xff);
    span.shard = static_cast<uint32_t>(kind_shard >> 8);
    span.start_us = slot.start_us.load(std::memory_order_relaxed);
    span.end_us = slot.end_us.load(std::memory_order_relaxed);
    span.arg = slot.arg.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) {
      continue;  // overwritten mid-read; drop the torn slot
    }
    out.push_back(span);
  }
  std::sort(out.begin(), out.end(), EndsBefore);
  return out;
}

SpanCollector::SpanCollector(const Options& options)
    : shards_(options.shards == 0 ? 1 : options.shards),
      sample_rate_(options.sample_rate),
      slow_threshold_us_(options.slow_threshold_us) {
  rings_.reserve(shards_);
  for (uint32_t shard = 0; shard < shards_; ++shard) {
    rings_.push_back(std::make_unique<SpanRing>(options.ring_capacity));
  }
}

void SpanCollector::Record(const Span& span) {
  rings_[span.shard < shards_ ? span.shard : 0]->Record(span);
}

void SpanCollector::RetainOutlier(std::vector<Span> tree) {
  slow_commits_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(outlier_mu_);
  outliers_.push_back(std::move(tree));
  while (outliers_.size() > kSpanOutlierCapacity) {
    outliers_.pop_front();
  }
}

std::vector<Span> SpanCollector::Snapshot() const {
  std::vector<Span> out;
  for (const auto& ring : rings_) {
    std::vector<Span> shard_spans = ring->Snapshot();
    out.insert(out.end(), shard_spans.begin(), shard_spans.end());
  }
  std::sort(out.begin(), out.end(), EndsBefore);
  return out;
}

std::vector<std::vector<Span>> SpanCollector::OutlierTrees() const {
  std::lock_guard<std::mutex> lock(outlier_mu_);
  return {outliers_.begin(), outliers_.end()};
}

uint64_t SpanCollector::recorded() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->recorded();
  }
  return total;
}

uint64_t SpanCollector::dropped() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->dropped();
  }
  return total;
}

}  // namespace rvm
