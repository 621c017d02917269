// rvmutl: RVM log inspection and post-mortem debugging tool.
//
// §6 of the paper describes an unexpected use of RVM: debugging corrupted
// persistent data structures by searching the log's modification history —
// "all we had to do was to save a copy of the log before truncation, and to
// build a post-mortem tool to search and display the history of
// modifications recorded by the log." This is that tool.
//
//   rvmutl LOG status                      show the status block
//   rvmutl LOG segments                    list the segment dictionary
//   rvmutl LOG records [N]                 list the newest N live records
//   rvmutl LOG history SEG OFFSET LEN      modification history of a range
//   rvmutl LOG verify [--segments]         structural check of the live log
//                                          (+ salvage report when corrupt;
//                                          exit 3 if committed data is lost;
//                                          --segments adds the data-segment
//                                          checksum leg, DESIGN.md §14)
//   rvmutl LOG scrub                       recovery + full data-segment
//                                          scrub: verify, repair from the
//                                          log, quarantine the rest
//   rvmutl LOG health                      offline per-shard fault-domain
//                                          probe (DESIGN.md §13); exit code
//                                          tracks the worst shard
//   rvmutl LOG repair                      offline shard repair: recovery
//                                          over healed shard files + sidecar
//                                          cleanup
//   rvmutl LOG trace [--shard=K]           recovery's event ring as an
//                                          rvm-spans-v1 document
//   rvmutl explore [options]               crash-schedule exploration of the
//                                          reference workload (src/check/);
//                                          --replay=STRING re-runs one
//                                          schedule deterministically
//   rvmutl watch [options]                 live monitor over a scratch
//                                          workload: the OpenMetrics
//                                          exposition (DESIGN.md §16) or,
//                                          with --gauges, the gauge table
//                                          (§11), ticking an RvmMonitor each
//                                          refresh; --port=N serves real
//                                          /metrics and /healthz endpoints,
//                                          --rules=FILE arms the SLO engine,
//                                          --spans=FILE / --chrome=FILE
//                                          export the span trees (§15)
//   rvmutl timeline FILE [--shard=K]       validate/render a time-series dump
//   rvmutl check-json FILE                 validate a telemetry document
//                                          against the schema it declares
//                                          (dispatched via the registry)
//   rvmutl check-metrics FILE              lint an OpenMetrics exposition
//   rvmutl slo --rules=F [--replay=F]      parse SLO rules / re-run them over
//                                          a recorded time series offline
//
// `rvmutl --help` renders the usage text from the same dispatch table Main()
// routes on, so the help cannot drift from the commands that actually exist.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/check/crash_explorer.h"
#include "src/monitor/metrics.h"
#include "src/monitor/monitor.h"
#include "src/monitor/slo.h"
#include "src/os/fault_env.h"
#include "src/os/file.h"
#include "src/rvm/checksum_map.h"
#include "src/rvm/log_device.h"
#include "src/rvm/rvm.h"
#include "src/telemetry/json.h"
#include "src/util/crc32.h"
#include "src/util/interval_set.h"

namespace rvm {
namespace {

int Usage(std::FILE* out);
bool ReadFileToString(const std::string& path, std::string* out);
bool WriteStringToFile(const std::string& path, const std::string& text);

// The VALUE of `arg` when it is "<prefix>VALUE" (prefix ends in '=').
std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view prefix) {
  if (arg.substr(0, prefix.size()) != prefix) {
    return std::nullopt;
  }
  return arg.substr(prefix.size());
}

// Strict unsigned parse for flag and argument values: decimal digits only
// (no sign, blank or suffix), no overflow, and at most `max`, which defaults
// to the range of T. Prints why on failure; callers exit 2 (bad usage).
template <typename T>
bool ParseUnsigned(std::string_view name, std::string_view text, T* out,
                   uint64_t max = std::numeric_limits<T>::max()) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end || value > max) {
    std::fprintf(stderr, "%.*s: expected an integer in [0, %llu], got '%.*s'\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(max),
                 static_cast<int>(text.size()), text.data());
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

void PrintHex(std::span<const uint8_t> data, uint64_t base_offset) {
  for (size_t row = 0; row < data.size(); row += 16) {
    std::printf("    %08llx  ",
                static_cast<unsigned long long>(base_offset + row));
    for (size_t i = row; i < row + 16; ++i) {
      if (i < data.size()) {
        std::printf("%02x ", data[i]);
      } else {
        std::printf("   ");
      }
    }
    std::printf(" |");
    for (size_t i = row; i < row + 16 && i < data.size(); ++i) {
      std::printf("%c", data[i] >= 32 && data[i] < 127 ? data[i] : '.');
    }
    std::printf("|\n");
  }
}

std::string SegmentName(const LogDevice& log, SegmentId id) {
  for (const SegmentDictEntry& entry : log.status().segments) {
    if (entry.id == id) {
      return entry.path;
    }
  }
  return "segment#" + std::to_string(id);
}

int CmdStatus(LogDevice& log) {
  const LogStatusBlock& status = log.status();
  std::printf("log size:          %" PRIu64 " bytes (%" PRIu64 " usable)\n",
              status.log_size, log.capacity());
  std::printf("generation:        %" PRIu64 "\n", status.generation);
  std::printf("head:              %" PRIu64 "\n", status.head);
  std::printf("tail:              %" PRIu64 "\n", status.tail);
  std::printf("in use:            %" PRIu64 " bytes (%.1f%%)\n", log.used(),
              100.0 * static_cast<double>(log.used()) /
                  static_cast<double>(log.capacity()));
  std::printf("next seqno:        %" PRIu64 "\n", status.tail_seqno);
  std::printf("newest record at:  %" PRIu64 "\n", status.last_record_offset);
  std::printf("segments:          %zu\n", status.segments.size());
  return 0;
}

int CmdSegments(LogDevice& log) {
  for (const SegmentDictEntry& entry : log.status().segments) {
    std::printf("%4u  %s\n", entry.id, entry.path.c_str());
  }
  return 0;
}

// Streams the live log into `visit`, newest first (after ExtendTailForward).
Status ForEachLiveRecord(
    LogDevice& log, const std::function<void(const OwnedRecord&)>& visit) {
  LogDevice::LiveRecords walk(log);
  for (;;) {
    RVM_ASSIGN_OR_RETURN(const OwnedRecord* record, walk.Next());
    if (record == nullptr) {
      return OkStatus();
    }
    visit(*record);
  }
}

int CmdRecords(LogDevice& log, uint64_t limit) {
  Status status = log.ExtendTailForward().status();
  uint64_t total = 0;
  if (status.ok()) {
    std::printf("%10s %10s %8s %7s  %s\n", "offset", "seqno", "tid", "ranges",
                "modified");
    status = ForEachLiveRecord(log, [&](const OwnedRecord& record) {
      if (total++ >= limit) {
        return;  // counted for the "more" line only
      }
      const RecordHeader& header = record.parsed.header;
      if (header.type == RecordType::kWrapFiller) {
        std::printf("%10" PRIu64 " %10" PRIu64 " %8s %7s  (wrap filler)\n",
                    record.offset, header.seqno, "-", "-");
        return;
      }
      std::printf("%10" PRIu64 " %10" PRIu64 " %8" PRIu64 " %7u  ",
                  record.offset, header.seqno, header.tid, header.num_ranges);
      bool first = true;
      for (const RangeView& range : record.parsed.ranges) {
        std::printf("%s%s[%" PRIu64 "..%" PRIu64 ")", first ? "" : ", ",
                    SegmentName(log, range.segment).c_str(), range.offset,
                    range.offset + range.data.size());
        first = false;
      }
      std::printf("\n");
    });
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (total > limit) {
    std::printf("... (%" PRIu64 " more, use 'records N')\n", total - limit);
  }
  return 0;
}

int CmdHistory(LogDevice& log, const std::string& segment, uint64_t offset,
               uint64_t length) {
  Status status = log.ExtendTailForward().status();
  SegmentId seg_id = kInvalidSegmentId;
  for (const SegmentDictEntry& entry : log.status().segments) {
    if (entry.path == segment || std::to_string(entry.id) == segment) {
      seg_id = entry.id;
    }
  }
  uint64_t hits = 0;
  if (status.ok()) {
    if (seg_id != kInvalidSegmentId) {
      std::printf("modification history of %s [%" PRIu64 "..%" PRIu64
                  "), newest first:\n\n", segment.c_str(), offset,
                  offset + length);
    }
    status = ForEachLiveRecord(log, [&](const OwnedRecord& record) {
      for (const RangeView& range : record.parsed.ranges) {
        if (range.segment != seg_id) {
          continue;
        }
        uint64_t range_end = range.offset + range.data.size();
        uint64_t overlap_start = std::max(offset, range.offset);
        uint64_t overlap_end = std::min(offset + length, range_end);
        if (overlap_start >= overlap_end) {
          continue;
        }
        ++hits;
        std::printf("  seqno %" PRIu64 " tid %" PRIu64 " wrote [%" PRIu64
                    "..%" PRIu64 "):\n", record.parsed.header.seqno,
                    record.parsed.header.tid, overlap_start, overlap_end);
        PrintHex(range.data.subspan(overlap_start - range.offset,
                                    overlap_end - overlap_start),
                 overlap_start);
      }
    });
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  if (seg_id == kInvalidSegmentId) {
    std::fprintf(stderr, "unknown segment %s (try 'segments')\n",
                 segment.c_str());
    return 1;
  }
  if (hits == 0) {
    std::printf("  (no live log records touch this range; it may have been "
                "truncated)\n");
  }
  return 0;
}

// Printed when verification fails: enumerates every record that can still
// be read anywhere in the area (magic-byte scan, CRC validated) and where
// the readable sequence breaks, so the operator can see exactly which
// committed transactions survive the corruption and which are lost.
// Returns true if the report found a gap — committed data that can no
// longer be read (scripts key exit code 3 off this).
bool SalvageReport(LogDevice& log) {
  bool lost_committed_data = false;
  auto scan = log.ScanForRecords(/*min_seqno=*/0, /*max_results=*/1 << 20);
  if (!scan.ok()) {
    std::fprintf(stderr, "salvage: scan failed: %s\n",
                 scan.status().ToString().c_str());
    return lost_committed_data;
  }
  std::vector<ScannedRecord>& items = *scan;
  std::ranges::sort(items, {}, [](const ScannedRecord& r) { return r.header.seqno; });
  std::fprintf(stderr, "salvage: %zu readable record(s) in the area\n",
               items.size());
  // Report runs of consecutive sequence numbers; a break between runs is
  // committed data that can no longer be read.
  size_t i = 0;
  while (i < items.size()) {
    size_t j = i;
    while (j + 1 < items.size() &&
           items[j + 1].header.seqno == items[j].header.seqno + 1) {
      ++j;
    }
    std::fprintf(stderr,
                 "salvage:   seqno %" PRIu64 "..%" PRIu64 " (%zu record(s)), "
                 "offsets %" PRIu64 "..%" PRIu64 "\n",
                 items[i].header.seqno, items[j].header.seqno, j - i + 1,
                 items[i].offset, items[j].offset);
    if (j + 1 < items.size()) {
      std::fprintf(stderr,
                   "salvage:   GAP: seqno %" PRIu64 "..%" PRIu64
                   " unreadable — committed data lost\n",
                   items[j].header.seqno + 1, items[j + 1].header.seqno - 1);
      lost_committed_data = true;
    }
    i = j + 1;
  }
  return lost_committed_data;
}

int CmdVerify(LogDevice& log) {
  uint64_t transactions = 0;
  uint64_t fillers = 0;
  uint64_t bytes = 0;
  uint64_t previous_seqno = UINT64_MAX;
  std::optional<uint64_t> out_of_order;  // offset of the first such record
  Status status = log.ExtendTailForward().status();
  if (status.ok()) {
    status = ForEachLiveRecord(log, [&](const OwnedRecord& record) {
      // Newest-first walk: sequence numbers must strictly decrease.
      if (record.parsed.header.seqno >= previous_seqno && !out_of_order) {
        out_of_order = record.offset;
      }
      previous_seqno = record.parsed.header.seqno;
      if (record.parsed.header.type == RecordType::kWrapFiller) {
        ++fillers;
      } else {
        ++transactions;
        for (const RangeView& range : record.parsed.ranges) {
          bytes += range.data.size();
        }
      }
    });
  }
  if (!status.ok()) {
    std::fprintf(stderr, "INVALID: %s\n", status.ToString().c_str());
    // Exit 3 when the salvage scan proves committed transactions are gone
    // (a seqno gap), so monitoring can distinguish "log damaged but data
    // recoverable elsewhere in the area" from actual data loss.
    return SalvageReport(log) ? 3 : 1;
  }
  if (out_of_order) {
    std::fprintf(stderr, "INVALID: sequence numbers not monotonic at offset "
                 "%" PRIu64 "\n", *out_of_order);
    return 1;
  }
  std::printf("OK: %" PRIu64 " transaction records, %" PRIu64 " wrap fillers, "
              "%" PRIu64 " data bytes, all CRCs valid\n",
              transactions, fillers, bytes);
  return 0;
}

// Offline data-segment leg of `verify --segments` (DESIGN.md §14): walks the
// union of dictionary entries across shards and checks every page with a
// recorded checksum against the segment file. A page's recorded CRC is
// defined over its bytes zero-padded to the sidecar's page size, so a
// segment file ending mid-page verifies identically before and after a later
// Map() rounds it up. Failures fold into the worst exit code as 1 — exit 3
// stays reserved for proven committed-log loss.
int VerifySegments(const std::vector<std::unique_ptr<LogDevice>>& logs) {
  Env* env = GetRealEnv();
  // A segment's dictionary entry lives on its home shard; union across
  // shards, deduplicating by id.
  std::map<SegmentId, std::string> segments;
  for (const std::unique_ptr<LogDevice>& log : logs) {
    for (const SegmentDictEntry& entry : log->status().segments) {
      segments.emplace(entry.id, entry.path);
    }
  }
  uint64_t checked = 0;
  uint64_t failures = 0;
  for (const auto& [id, path] : segments) {
    // page_size 0: adopt the sidecar's own recorded page size — the offline
    // tool does not know the instance's configuration.
    SegmentChecksumMap chk = SegmentChecksumMap::Load(env, path, 0);
    if (chk.num_pages() == 0) {
      std::printf("segment %4u %s: no recorded checksums (skipped)\n", id,
                  path.c_str());
      continue;
    }
    if (!env->Exists(path)) {
      std::fprintf(stderr,
                   "segment %4u %s: checksum sidecar present but segment "
                   "file missing\n",
                   id, path.c_str());
      ++failures;
      continue;
    }
    auto file = env->Open(path, OpenMode::kReadOnly);
    if (!file.ok()) {
      std::fprintf(stderr, "segment %4u %s: cannot open: %s\n", id,
                   path.c_str(), file.status().ToString().c_str());
      ++failures;
      continue;
    }
    auto size = (*file)->Size();
    if (!size.ok()) {
      std::fprintf(stderr, "segment %4u %s: cannot stat: %s\n", id,
                   path.c_str(), size.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::vector<uint8_t> buffer(chk.page_size());
    for (uint64_t page = 0; page < chk.num_pages(); ++page) {
      if (!chk.known(page)) {
        continue;
      }
      const uint64_t start = page * chk.page_size();
      std::memset(buffer.data(), 0, buffer.size());
      if (start < *size) {
        const uint64_t length =
            std::min<uint64_t>(buffer.size(), *size - start);
        auto read = (*file)->ReadAt(
            start, std::span<uint8_t>(buffer.data(), length));
        if (!read.ok()) {
          std::fprintf(stderr,
                       "segment %4u %s: page %" PRIu64 " unreadable: %s\n", id,
                       path.c_str(), page, read.status().ToString().c_str());
          ++failures;
          continue;
        }
      }
      ++checked;
      if (Crc32(std::span<const uint8_t>(buffer.data(), buffer.size())) !=
          chk.crc(page)) {
        std::fprintf(stderr,
                     "segment %4u %s: page %" PRIu64 " FAILED checksum\n", id,
                     path.c_str(), page);
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("OK: %" PRIu64
                " segment page(s) match their recorded checksums\n",
                checked);
    return 0;
  }
  std::fprintf(stderr, "INVALID: %" PRIu64 " segment page failure(s)\n",
               failures);
  return 1;
}

int CmdStats(const std::string& log_path, int argc, char** argv) {
  // Opens the log through the full library (running crash recovery), so the
  // recovery counters and — after recovery truncates — the group-commit and
  // latency histograms reflect a real Initialize.
  bool json = false;
  std::string json_path;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(std::strlen("--json="));
    } else {
      std::fprintf(stderr, "unknown stats option: %s\n", arg.c_str());
      return 2;
    }
  }
  RvmOptions options;
  options.log_path = log_path;
  auto shard_count = LogDevice::DetectShardCount(GetRealEnv(), log_path);
  if (shard_count.ok()) {
    options.log_shards = *shard_count;
  }
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr, "cannot initialize on log %s: %s\n", log_path.c_str(),
                 rvm.status().ToString().c_str());
    return 1;
  }
  const uint64_t in_use = (*rvm)->log_bytes_in_use();
  const uint64_t capacity = (*rvm)->log_capacity();
  const RvmGauges gauges = (*rvm)->Introspect();
  const RvmStatistics stats = (*rvm)->statistics().Snapshot();
  if (json) {
    const std::string document = TelemetryJsonDocument(
        "rvmutl-stats",
        {StatisticsJsonRun("recovery", stats,
                           {{"log_bytes_in_use", in_use},
                            {"log_capacity", capacity}})});
    if (json_path.empty()) {
      std::printf("%s", document.c_str());
      return 0;
    }
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fputs(document.c_str(), out);
    std::fclose(out);
    return 0;
  }
  std::printf("%s", FormatStatistics(stats).c_str());
  std::printf("log in use:               %" PRIu64 " / %" PRIu64 " bytes\n",
              in_use, capacity);
  // Per-shard rows (multi-shard logs only): the aggregate counters above sum
  // across shards; these show how the load actually striped.
  for (const ShardGauges& shard : gauges.shards) {
    std::printf("shard %-2" PRIu64 "                  %" PRIu64 " / %" PRIu64
                " bytes, %" PRIu64 " records, %" PRIu64 " forces, %" PRIu64
                " prepares, %" PRIu64 " truncations\n",
                shard.index, shard.log_bytes_in_use, shard.log_capacity,
                shard.records_appended, shard.forces, shard.prepares,
                shard.truncations);
  }
  return 0;
}

int CmdTrace(const std::string& log_path, int argc, char** argv) {
  // Initialize runs recovery, so the event ring shows exactly what recovery
  // did to this log (recovery-scan, recovery-apply, forces), printed as an
  // rvm-spans-v1 document that `check-json` validates.
  bool shard_filter = false;
  uint32_t shard = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::optional<std::string_view> v = FlagValue(argv[i], "--shard=")) {
      if (!ParseUnsigned("--shard", *v, &shard)) {
        return 2;
      }
      shard_filter = true;
    } else {
      std::fprintf(stderr, "unknown trace option: %s\n", argv[i]);
      return 2;
    }
  }
  RvmOptions options;
  options.log_path = log_path;
  auto shard_count = LogDevice::DetectShardCount(GetRealEnv(), log_path);
  if (shard_count.ok()) {
    options.log_shards = *shard_count;
  }
  if (shard_filter && shard >= options.log_shards) {
    std::fprintf(stderr, "--shard=%u out of range (log has %u shard(s))\n",
                 shard, options.log_shards);
    return 2;
  }
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr, "cannot initialize on log %s: %s\n", log_path.c_str(),
                 rvm.status().ToString().c_str());
    return 1;
  }
  std::vector<Span> records = (*rvm)->SpanSnapshot();
  if (shard_filter) {
    std::erase_if(records,
                  [shard](const Span& span) { return span.shard != shard; });
  }
  std::printf("%s",
              SpansJsonl(records, "rvmutl-trace", options.log_shards).c_str());
  return 0;
}

int CmdCheckJson(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  // Dispatch purely through the schema registry: whichever schema the
  // document self-identifies as picks the validator, so a new schema only
  // has to register itself (src/telemetry/json.cc) to become checkable
  // here. Documents that declare no registered schema fall back to the
  // common telemetry validator, whose own header check produces the
  // diagnostic.
  const JsonSchema* schema = SniffJsonSchema(text);
  const char* name = schema != nullptr ? schema->name : kTelemetrySchemaVersion;
  Status valid =
      schema != nullptr ? schema->validate(text) : ValidateTelemetryJson(text);
  if (!valid.ok()) {
    std::fprintf(stderr, "INVALID %s: %s\n", path.c_str(),
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("OK %s: valid %s document\n", path.c_str(), name);
  return 0;
}

// `rvmutl check-metrics FILE`: lint an OpenMetrics exposition — a /metrics
// response body or a monitor export file — with the in-tree validator
// (src/monitor/metrics.h). CI's smoke job curls /metrics into a file and
// runs this over it. Exit codes match check-json: 0 valid, 1 invalid,
// 2 file error.
int CmdCheckMetrics(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  Status valid = ValidateOpenMetrics(text);
  if (!valid.ok()) {
    std::fprintf(stderr, "INVALID %s: %s\n", path.c_str(),
                 valid.ToString().c_str());
    return 1;
  }
  size_t series = 0;
  for (size_t start = 0; start < text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (end > start && text[start] != '#') {
      ++series;
    }
    start = end + 1;
  }
  std::printf("OK %s: valid OpenMetrics exposition (%zu series)\n",
              path.c_str(), series);
  return 0;
}

// `rvmutl timeline FILE [--shard=K]`: validate an rvm-timeseries-v2 dump and
// render it as a table, one row per sample. With --shard=K the row shows
// shard K's slice of each sample (its "shards" array entry) instead of the
// instance aggregates. Exit codes match check-json: 0 valid, 1 invalid,
// 2 file error.
int CmdTimeline(const std::string& path, int argc, char** argv) {
  bool shard_filter = false;
  uint32_t shard = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::optional<std::string_view> v = FlagValue(argv[i], "--shard=")) {
      if (!ParseUnsigned("--shard", *v, &shard)) {
        return 2;
      }
      shard_filter = true;
    } else {
      std::fprintf(stderr, "unknown timeline option: %s\n", argv[i]);
      return 2;
    }
  }
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::string text;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    text.append(buffer, read);
  }
  std::fclose(in);
  Status valid = ValidateTimeseriesJsonl(text);
  if (!valid.ok()) {
    std::fprintf(stderr, "INVALID %s: %s\n", path.c_str(),
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("OK %s: valid %s document\n", path.c_str(),
              kTimeseriesSchemaVersion);
  // Validation passed, so every line parses and carries the required
  // members; rendering can use the values without re-checking shapes.
  auto gauge = [](const JsonValue& sample, const char* name) -> double {
    const JsonValue* gauges = sample.Find("gauges");
    const JsonValue* value = gauges != nullptr ? gauges->Find(name) : nullptr;
    return value != nullptr && value->IsNumber() ? value->number : 0;
  };
  auto counter = [](const JsonValue& sample, const char* name) -> double {
    const JsonValue* counters = sample.Find("counters");
    const JsonValue* value =
        counters != nullptr ? counters->Find(name) : nullptr;
    return value != nullptr && value->IsNumber() ? value->number : 0;
  };
  if (shard_filter) {
    std::printf("%10s %7s %12s %7s %7s %9s %7s %11s\n", "t(ms)", "util%",
                "in-use", "pqueue", "spool", "records", "forces",
                "truncations");
  } else {
    std::printf("%10s %7s %12s %12s %7s %7s %7s %10s %8s\n", "t(ms)", "util%",
                "in-use", "reclaimable", "pqueue", "spool", "txns", "committed",
                "poisoned");
  }
  bool first = true;
  double t0 = 0;
  size_t line_number = 0;
  size_t shard_rows = 0;
  for (size_t start = 0; start < text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string_view line(text.data() + start, end - start);
    start = end + 1;
    if (line.empty() || line_number++ == 0) {
      continue;  // skip blanks and the header line
    }
    auto sample = ParseJson(line);
    if (!sample.ok()) {
      continue;  // unreachable after validation; keep rendering robust
    }
    const double t = sample->Find("t")->number;
    if (first) {
      t0 = t;
      first = false;
    }
    if (shard_filter) {
      const JsonValue* gauges = sample->Find("gauges");
      const JsonValue* shards =
          gauges != nullptr ? gauges->Find("shards") : nullptr;
      const JsonValue* row = nullptr;
      if (shards != nullptr && shards->IsArray()) {
        for (const JsonValue& candidate : shards->array) {
          const JsonValue* index = candidate.Find("shard");
          if (index != nullptr && index->IsNumber() &&
              static_cast<uint32_t>(index->number) == shard) {
            row = &candidate;
            break;
          }
        }
      }
      if (row == nullptr) {
        continue;  // single-shard dumps carry no per-shard rows
      }
      ++shard_rows;
      auto field = [&](const char* name) -> double {
        const JsonValue* value = row->Find(name);
        return value != nullptr && value->IsNumber() ? value->number : 0;
      };
      const double capacity = field("capacity");
      const double in_use = field("bytes_in_use");
      std::printf("%10.1f %7.1f %12.0f %7.0f %7.0f %9.0f %7.0f %11.0f\n",
                  (t - t0) / 1000.0,
                  capacity > 0 ? in_use / capacity * 100.0 : 0.0, in_use,
                  field("page_queue"), field("spool_entries"),
                  field("records"), field("forces"), field("truncations"));
      continue;
    }
    std::printf("%10.1f %7.1f %12.0f %12.0f %7.0f %7.0f %7.0f %10.0f %8.0f\n",
                (t - t0) / 1000.0, gauge(*sample, "log_utilization") * 100.0,
                gauge(*sample, "log_bytes_in_use"),
                gauge(*sample, "log_reclaimable_bytes"),
                gauge(*sample, "page_queue_depth"),
                gauge(*sample, "spool_entries"),
                gauge(*sample, "open_transactions"),
                counter(*sample, "transactions_committed"),
                gauge(*sample, "poisoned"));
  }
  if (shard_filter && shard_rows == 0) {
    std::fprintf(stderr,
                 "no samples carry a row for shard %u (single-shard dumps "
                 "have no per-shard rows)\n",
                 shard);
    return 1;
  }
  return 0;
}

// The `rvmutl watch` scratch workload. Two processes cannot share one
// RvmInstance, so the monitor drives its own: a deliberately small log in a
// fresh temp dir (truncation stays busy, so the head/queue/utilization
// gauges visibly move between refreshes), one 64-page region per worker,
// and a truncation-heavy commit loop — mostly no-flush commits keep the
// spool gauge nonzero, every 8th commit flushes so the log keeps churning.
// On a multi-shard log two more regions land on consecutive (hence
// distinct) shards, and worker 0 commits every 4th transaction across them,
// exercising the internal 2PC path (segment ids are assigned in Map order
// and regions stripe to segment_id % shards, DESIGN.md §12).
constexpr uint64_t kScratchPage = 4096;
constexpr uint64_t kScratchRegionPages = 64;

struct ScratchWorkload {
  std::string dir;
  std::string log_path;
  std::unique_ptr<RvmInstance> rvm;
  std::vector<uint8_t*> bases;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::atomic<int64_t> budget{0};  // commits the workers may still start
  std::atomic<unsigned> running{0};
  std::vector<std::thread> workers;

  ~ScratchWorkload() { StopWorkers(); }

  void StopWorkers() {
    stop.store(true);
    for (std::thread& worker : workers) {
      worker.join();
    }
    workers.clear();
  }
};

// Creates the scratch log, opens the instance with the caller's options
// (log_path/log_shards are filled in here), maps the regions and launches
// the workers, which stop after `txns` commits in total (0 = until stopped).
// Prints the failure and returns nonzero on error.
int StartScratchWorkload(unsigned threads, uint32_t shards, uint64_t txns,
                         RvmOptions options, RestoreMode restore_mode,
                         ScratchWorkload* scratch) {
  char dir_template[] = "/tmp/rvmutl_scratch_XXXXXX";
  char* dir = ::mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  scratch->dir = dir;
  scratch->log_path = scratch->dir + "/log";
  Status created = RvmInstance::CreateLog(GetRealEnv(), scratch->log_path,
                                          1 << 20, /*overwrite=*/false, shards);
  if (!created.ok()) {
    std::fprintf(stderr, "create: %s\n", created.ToString().c_str());
    return 1;
  }
  options.log_path = scratch->log_path;
  options.log_shards = shards;
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr, "init: %s\n", rvm.status().ToString().c_str());
    return 1;
  }
  scratch->rvm = std::move(*rvm);
  const unsigned regions = threads + (shards > 1 ? 2 : 0);
  for (unsigned r = 0; r < regions; ++r) {
    RegionDescriptor region;
    region.segment_path = scratch->dir + "/seg" + std::to_string(r);
    region.length = kScratchRegionPages * kScratchPage;
    Status mapped = scratch->rvm->Map(region);
    if (!mapped.ok()) {
      std::fprintf(stderr, "map: %s\n", mapped.ToString().c_str());
      return 1;
    }
    scratch->bases.push_back(static_cast<uint8_t*>(region.address));
  }
  scratch->budget.store(txns == 0 ? std::numeric_limits<int64_t>::max()
                                  : static_cast<int64_t>(txns));
  scratch->running.store(threads);
  for (unsigned worker = 0; worker < threads; ++worker) {
    scratch->workers.emplace_back([scratch, worker, restore_mode, threads] {
      // One commit; false when the instance refuses (poisoned, the shard
      // quarantined, or shutting down).
      auto commit_one = [&](uint64_t i) {
        Transaction txn(*scratch->rvm, restore_mode);
        if (!txn.ok()) {
          return false;
        }
        if (worker == 0 && scratch->bases.size() > threads && i % 4 == 3) {
          for (unsigned r = threads; r < threads + 2; ++r) {
            if (!txn.SetRange(scratch->bases[r], 128).ok()) {
              return false;
            }
            std::memset(scratch->bases[r], static_cast<int>(i & 0xFF), 128);
          }
        } else {
          uint8_t* base = scratch->bases[worker];
          const uint64_t offset =
              (i * 257) % (kScratchRegionPages * kScratchPage - 256);
          if (!txn.SetRange(base + offset, 256).ok()) {
            return false;
          }
          std::memset(base + offset, static_cast<int>(i & 0xFF), 256);
        }
        return txn.Commit(i % 8 == 7 ? CommitMode::kFlush
                                     : CommitMode::kNoFlush)
            .ok();
      };
      for (uint64_t i = 0;
           !scratch->stop.load(std::memory_order_relaxed) &&
           scratch->budget.fetch_sub(1, std::memory_order_relaxed) > 0 &&
           commit_one(i);
           ++i) {
        scratch->committed.fetch_add(1, std::memory_order_relaxed);
      }
      scratch->running.fetch_sub(1);
    });
  }
  return 0;
}

// Prints the exposition's series lines matching `filter`, at most `limit`.
void PrintExposition(const std::string& exposition, const std::string& filter,
                     uint64_t limit) {
  size_t shown = 0;
  size_t matched = 0;
  for (size_t start = 0; start < exposition.size();) {
    size_t end = exposition.find('\n', start);
    if (end == std::string::npos) {
      end = exposition.size();
    }
    const std::string_view line(exposition.data() + start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') {
      continue;  // skip HELP/TYPE/EOF metadata; series lines only
    }
    if (!filter.empty() && line.find(filter) == std::string_view::npos) {
      continue;
    }
    ++matched;
    if (shown < limit) {
      std::printf("%.*s\n", static_cast<int>(line.size()), line.data());
      ++shown;
    }
  }
  if (matched > shown) {
    std::printf("... (%zu more series; narrow with --filter=SUBSTR or "
                "raise --limit=N)\n",
                matched - shown);
  }
}

// `rvmutl watch`: drive the scratch workload and periodically render its
// live state through an RvmMonitor (DESIGN.md §16) — by default the
// /metrics exposition and /healthz verdict, with --gauges the gauge table
// (DESIGN.md §11). Each refresh ticks the monitor once: one time-series
// sample, one SLO pass, and a rewrite of <log>.metrics. With --port=N the
// monitor serves the real HTTP endpoints too (N=0 picks an ephemeral port,
// printed in the header), so an operator can curl a live /metrics while
// the workload runs; --rules=FILE arms the SLO engine, and a firing rule
// flips the health line to 503 on the next refresh; --fault-shard=K runs
// the chaos schedule below. --spans=FILE / --chrome=FILE export the
// event ring (DESIGN.md §15) as rvm-spans-v1 JSONL / a Chrome trace with
// every commit's span tree (--sample=N, default 1) and slow-commit outliers
// (--slow-us=N). --txns=N stops after N commits instead of --duration-ms.
// The final exposition is linted with the same validator `check-metrics`
// uses, so a broken renderer fails the command instead of scrolling past.
int CmdWatch(int argc, char** argv) {
  uint64_t duration_ms = 3000;
  uint64_t interval_ms = 250;
  uint64_t txns = 0;
  unsigned threads = 2;
  uint32_t shards = 1;
  uint64_t limit = 24;
  uint16_t port = 0;
  bool port_set = false;
  uint32_t fault_shard = 0;
  bool chaos = false;
  uint64_t fault_after_ms = 0;
  bool gauges_view = false;
  uint32_t sample = 1;
  uint64_t slow_us = 0;
  std::string rules_path;
  std::string filter;
  std::string spans_path;
  std::string chrome_path;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::optional<std::string_view> v;
    bool ok = true;
    if ((v = FlagValue(arg, "--duration-ms="))) {
      ok = ParseUnsigned("--duration-ms", *v, &duration_ms);
    } else if ((v = FlagValue(arg, "--interval-ms="))) {
      ok = ParseUnsigned("--interval-ms", *v, &interval_ms);
    } else if ((v = FlagValue(arg, "--txns="))) {
      ok = ParseUnsigned("--txns", *v, &txns,
                         std::numeric_limits<int64_t>::max());
    } else if ((v = FlagValue(arg, "--threads="))) {
      ok = ParseUnsigned("--threads", *v, &threads);
    } else if ((v = FlagValue(arg, "--shards="))) {
      ok = ParseUnsigned("--shards", *v, &shards, kMaxLogShards);
    } else if ((v = FlagValue(arg, "--limit="))) {
      ok = ParseUnsigned("--limit", *v, &limit);
    } else if ((v = FlagValue(arg, "--port="))) {
      ok = ParseUnsigned("--port", *v, &port);
      port_set = true;
    } else if ((v = FlagValue(arg, "--fault-shard="))) {
      ok = ParseUnsigned("--fault-shard", *v, &fault_shard);
      chaos = true;
    } else if ((v = FlagValue(arg, "--fault-after-ms="))) {
      ok = ParseUnsigned("--fault-after-ms", *v, &fault_after_ms);
    } else if ((v = FlagValue(arg, "--sample="))) {
      ok = ParseUnsigned("--sample", *v, &sample);
    } else if ((v = FlagValue(arg, "--slow-us="))) {
      ok = ParseUnsigned("--slow-us", *v, &slow_us);
    } else if ((v = FlagValue(arg, "--rules="))) {
      rules_path = *v;
    } else if ((v = FlagValue(arg, "--filter="))) {
      filter = *v;
    } else if ((v = FlagValue(arg, "--spans="))) {
      spans_path = *v;
    } else if ((v = FlagValue(arg, "--chrome="))) {
      chrome_path = *v;
    } else if (arg == "--gauges") {
      gauges_view = true;
    } else {
      std::fprintf(stderr, "unknown watch option: %s\n", argv[i]);
      return 2;
    }
    if (!ok) {
      return 2;
    }
  }
  if (interval_ms == 0 || threads == 0 || shards == 0) {
    std::fprintf(stderr,
                 "watch: interval, threads and shards must be nonzero\n");
    return 2;
  }
  if (chaos && (shards < 2 || fault_shard >= shards)) {
    std::fprintf(stderr,
                 "watch: --fault-shard needs --shards >= 2 and a shard index "
                 "below the count (fault containment is per shard)\n");
    return 2;
  }
  const bool export_spans = !spans_path.empty() || !chrome_path.empty();
  if (export_spans && sample == 0 && slow_us == 0) {
    std::fprintf(stderr,
                 "watch: span export needs --sample=N or --slow-us=N (both 0 "
                 "materializes no span trees)\n");
    return 2;
  }
  if (fault_after_ms == 0) {
    fault_after_ms = duration_ms / 3;
  }
  std::string rules_text;
  if (!rules_path.empty() && !ReadFileToString(rules_path, &rules_text)) {
    std::fprintf(stderr, "cannot open %s\n", rules_path.c_str());
    return 2;
  }

  // Declared before the workload so the instance (destroyed with `scratch`)
  // never outlives the env it runs on.
  FaultInjectionEnv fault_env(GetRealEnv());
  ScratchWorkload scratch;
  RvmOptions options;
  if (chaos) {
    options.env = &fault_env;
  }
  if (export_spans) {
    options.span_sample_rate = sample;
    options.slow_commit_threshold_us = slow_us;
    options.span_ring_capacity = 1 << 16;
  }
  // Chaos mode needs restore transactions: a failed no-restore commit has no
  // old values to roll back and poisons the whole instance (rvm.cc), whereas
  // a failed restore commit is contained to a shard quarantine — the arc the
  // chaos run exists to record.
  const RestoreMode restore_mode =
      chaos ? RestoreMode::kRestore : RestoreMode::kNoRestore;
  if (int started = StartScratchWorkload(threads, shards, txns,
                                         std::move(options), restore_mode,
                                         &scratch);
      started != 0) {
    return started;
  }
  const std::string metrics_path = scratch.log_path + ".metrics";
  // Declared after `scratch`, so it is destroyed (stopping the listener)
  // before the instance it watches.
  MonitorOptions monitor_options;
  monitor_options.export_path = metrics_path;
  monitor_options.http_port = port_set ? port : -1;
  monitor_options.slo_rules = rules_text;
  StatusOr<std::unique_ptr<RvmMonitor>> created =
      RvmMonitor::Create(*scratch.rvm, /*env=*/nullptr, monitor_options);
  if (!created.ok()) {
    std::fprintf(stderr, "monitor: %s\n", created.status().ToString().c_str());
    return 1;
  }
  RvmMonitor& monitor = **created;

  Env* env = GetRealEnv();
  const uint64_t start_us = env->NowMicros();
  const bool tty = ::isatty(::fileno(stdout)) != 0;
  uint64_t refreshes = 0;
  // Chaos schedule (--fault-shard): a sticky write fault lands on the target
  // shard's device at fault_after_ms, the failed commit quarantines it (the
  // quarantined_shards gauge rises, SLO rules on it fire, /healthz flips to
  // 503), and halfway through the remaining run the fault is cleared and
  // RepairShard heals it — so the dumped time series carries the full
  // fire-then-resolve arc for `rvmutl slo --replay`.
  const uint64_t heal_after_ms = fault_after_ms + (duration_ms - std::min(
      fault_after_ms, duration_ms)) / 2;
  bool fault_injected = false;
  bool fault_repaired = false;
  std::string chaos_note;
  while (txns > 0 ? scratch.running.load() > 0
                  : env->NowMicros() - start_us < duration_ms * 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const uint64_t elapsed_ms = (env->NowMicros() - start_us) / 1000;
    if (chaos && !fault_injected && elapsed_ms >= fault_after_ms) {
      FaultSpec spec;
      spec.op = FaultOp::kWriteAt;
      spec.sticky = true;
      spec.message = "chaos: injected by rvmutl watch";
      spec.path_substring = ShardLogPath(scratch.log_path, fault_shard);
      fault_env.InjectFault(spec);
      fault_injected = true;
      chaos_note = "chaos: sticky write fault on shard " +
                   std::to_string(fault_shard) + " (quarantine expected)\n";
    }
    if (fault_injected && !fault_repaired && elapsed_ms >= heal_after_ms) {
      fault_env.ClearFaults();
      Status repaired = scratch.rvm->RepairShard(fault_shard);
      fault_repaired = true;
      chaos_note = "chaos: fault cleared, RepairShard(" +
                   std::to_string(fault_shard) + ") -> " +
                   (repaired.ok() ? std::string("ok") : repaired.ToString()) +
                   "\n";
    }
    monitor.Tick();
    if (tty) {
      std::printf("\033[2J\033[H");  // clear screen, home cursor
    }
    std::printf("rvmutl watch — %llu committed, refresh %llu (every %llu ms)",
                static_cast<unsigned long long>(scratch.committed.load()),
                static_cast<unsigned long long>(++refreshes),
                static_cast<unsigned long long>(interval_ms));
    if (monitor.port() >= 0) {
      std::printf(" — http://127.0.0.1:%d/metrics", monitor.port());
    }
    std::printf("\n%s", chaos_note.c_str());
    if (gauges_view) {
      std::printf("%s", FormatGauges(scratch.rvm->Introspect()).c_str());
    } else {
      std::string health_body;
      const int health = monitor.Healthz(&health_body);
      std::printf("healthz %d %s", health, health_body.c_str());
      PrintExposition(monitor.RenderMetrics(), filter, limit);
    }
    std::fflush(stdout);
  }

  scratch.StopWorkers();
  const std::string final_exposition = monitor.RenderMetrics();
  Status lint = ValidateOpenMetrics(final_exposition);
  if (export_spans) {
    const RvmGauges gauges = scratch.rvm->Introspect();
    const StatusOr<std::string> jsonl = scratch.rvm->DumpSpansJsonl();
    const StatusOr<std::string> chrome = scratch.rvm->DumpSpansChromeTrace();
    if (!jsonl.ok() || !chrome.ok()) {
      std::fprintf(stderr, "spans: %s\n",
                   (jsonl.ok() ? chrome.status() : jsonl.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if ((!spans_path.empty() && !WriteStringToFile(spans_path, *jsonl)) ||
        (!chrome_path.empty() && !WriteStringToFile(chrome_path, *chrome))) {
      return 1;
    }
    std::printf("\nrecorded %llu span(s) (%llu dropped), %llu slow commit(s)",
                static_cast<unsigned long long>(gauges.spans_recorded),
                static_cast<unsigned long long>(gauges.spans_dropped),
                static_cast<unsigned long long>(gauges.slow_commits));
    if (!spans_path.empty()) {
      std::printf("; spans: %s", spans_path.c_str());
    }
    if (!chrome_path.empty()) {
      std::printf("; chrome trace: %s", chrome_path.c_str());
    }
    std::printf("\n");
  }
  Status terminated = scratch.rvm->Terminate();
  if (!terminated.ok()) {
    std::fprintf(stderr, "terminate: %s\n", terminated.ToString().c_str());
    return 1;
  }
  // One last sample captures the terminated instance; the series lands
  // next to the log, where `rvmutl slo --replay` and CI look for it.
  monitor.Tick();
  const std::string series_path = scratch.log_path + ".timeseries.jsonl";
  Status dumped = monitor.DumpTimeseries(series_path);
  if (!dumped.ok()) {
    std::fprintf(stderr, "timeseries: %s\n", dumped.ToString().c_str());
    return 1;
  }
  if (!lint.ok()) {
    std::fprintf(stderr, "INVALID exposition: %s\n", lint.ToString().c_str());
    return 1;
  }
  if (!WriteStringToFile(metrics_path, final_exposition)) {
    return 1;
  }
  std::printf("\n%llu committed; exposition lint OK (%zu bytes)\n",
              static_cast<unsigned long long>(scratch.committed.load()),
              final_exposition.size());
  std::printf("metrics exported to %s\n", metrics_path.c_str());
  std::printf("time series dumped to %s\n", series_path.c_str());
  return 0;
}

// `rvmutl slo --rules=FILE [--replay=FILE]`: offline SLO evaluation
// (DESIGN.md §16). With only --rules the file is parsed and summarized — a
// config check for CI. With --replay=FILE the rules run over a recorded
// rvm-timeseries-v2 document exactly as the live engine would have seen the
// samples (same signal names, same cadence), printing every firing/resolved
// transition. Exit codes: 0 no rule fired (or, with --expect-firing=NAME,
// NAME fired — the nightly chaos job uses this to assert the quarantine
// rule trips), 1 a rule fired (or NAME did not), 2 usage/file error,
// 3 invalid rules or replay document.
int CmdSlo(int argc, char** argv) {
  std::string rules_path;
  std::string replay_path;
  std::string expect;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--rules=", 0) == 0) {
      rules_path = arg.substr(std::strlen("--rules="));
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_path = arg.substr(std::strlen("--replay="));
    } else if (arg.rfind("--expect-firing=", 0) == 0) {
      expect = arg.substr(std::strlen("--expect-firing="));
    } else {
      std::fprintf(stderr, "unknown slo option: %s\n", arg.c_str());
      return 2;
    }
  }
  if (rules_path.empty()) {
    std::fprintf(stderr, "slo: --rules=FILE is required\n");
    return 2;
  }
  if (!expect.empty() && replay_path.empty()) {
    std::fprintf(stderr, "slo: --expect-firing needs --replay=FILE\n");
    return 2;
  }
  std::string rules_text;
  if (!ReadFileToString(rules_path, &rules_text)) {
    std::fprintf(stderr, "cannot open %s\n", rules_path.c_str());
    return 2;
  }
  auto parsed = ParseSloRules(rules_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "INVALID %s: %s\n", rules_path.c_str(),
                 parsed.status().ToString().c_str());
    return 3;
  }
  const std::vector<SloRule> rules = *std::move(parsed);
  std::printf("parsed %zu rule(s) from %s\n", rules.size(),
              rules_path.c_str());
  for (const SloRule& rule : rules) {
    const char* op = rule.op == SloRule::Op::kGt   ? ">"
                     : rule.op == SloRule::Op::kGe ? ">="
                     : rule.op == SloRule::Op::kLt ? "<"
                                                   : "<=";
    if (rule.is_burn_rate()) {
      std::printf("  %-24s %s %s %g window=%llu burn=%g\n", rule.name.c_str(),
                  rule.signal.c_str(), op, rule.threshold,
                  static_cast<unsigned long long>(rule.window_samples),
                  rule.burn_budget);
    } else {
      std::printf("  %-24s %s %s %g for=%llu\n", rule.name.c_str(),
                  rule.signal.c_str(), op, rule.threshold,
                  static_cast<unsigned long long>(rule.for_samples));
    }
  }
  if (replay_path.empty()) {
    return 0;
  }
  std::string replay_text;
  if (!ReadFileToString(replay_path, &replay_text)) {
    std::fprintf(stderr, "cannot open %s\n", replay_path.c_str());
    return 2;
  }
  Status valid = ValidateTimeseriesJsonl(replay_text);
  if (!valid.ok()) {
    std::fprintf(stderr, "INVALID %s: %s\n", replay_path.c_str(),
                 valid.ToString().c_str());
    return 3;
  }
  SloEngine engine(rules);
  uint64_t samples = 0;
  uint64_t firings = 0;
  bool expect_fired = false;
  bool first = true;
  double t0 = 0;
  size_t line_number = 0;
  for (size_t start = 0; start < replay_text.size();) {
    size_t end = replay_text.find('\n', start);
    if (end == std::string::npos) {
      end = replay_text.size();
    }
    const std::string_view line(replay_text.data() + start, end - start);
    start = end + 1;
    if (line.empty() || line_number++ == 0) {
      continue;  // skip blanks and the header line
    }
    auto sample = ParseJson(line);
    if (!sample.ok()) {
      continue;  // unreachable after validation
    }
    const JsonValue* t = sample->Find("t");
    const JsonValue* gauges = sample->Find("gauges");
    if (t == nullptr || !t->IsNumber() || gauges == nullptr ||
        !gauges->IsObject()) {
      continue;
    }
    if (first) {
      t0 = t->number;
      first = false;
    }
    // The flat numeric gauge members ARE the live engine's signal map
    // (SloSignals walks the same names), so replay sees what production
    // saw; nested members like the per-shard array carry no signals.
    std::map<std::string, double> signals;
    for (const auto& [key, value] : gauges->object) {
      if (value.IsNumber()) {
        signals[key] = value.number;
      }
    }
    ++samples;
    for (const SloTransition& transition :
         engine.Evaluate(static_cast<uint64_t>(t->number), signals)) {
      std::printf("%12.1f ms  %-8s %s (%s = %g)\n",
                  (t->number - t0) / 1000.0,
                  transition.firing ? "FIRING" : "RESOLVED",
                  transition.rule.c_str(),
                  rules[transition.rule_index].signal.c_str(),
                  transition.value);
      if (transition.firing) {
        ++firings;
        if (transition.rule == expect) {
          expect_fired = true;
        }
      }
    }
  }
  std::printf("replayed %llu sample(s): %llu firing transition(s)\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(firings));
  std::printf("final state: %s\n", engine.StateJson().c_str());
  if (!expect.empty()) {
    if (expect_fired) {
      std::printf("rule '%s' fired as expected\n", expect.c_str());
      return 0;
    }
    std::fprintf(stderr, "rule '%s' never fired\n", expect.c_str());
    return 1;
  }
  return firings == 0 ? 0 : 1;
}

// Writes `text` to `path` (or stdout when the path is empty). Small
// telemetry artifacts only.
bool WriteStringToFile(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fputs(text.c_str(), out);
  std::fclose(out);
  return true;
}

// Reads a whole file into a string; empty optional-style return via the
// bool. Small telemetry artifacts only (sidecars, dumps).
bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    out->append(buffer, read);
  }
  std::fclose(in);
  return true;
}

// Pulls the recorded failure reason and retry count for `shard` out of a
// quarantine sidecar (`<shard path>.quarantine.json`, written by the live
// instance at the moment it quarantined the shard — DESIGN.md §13).
// Best-effort: a missing or malformed sidecar just leaves the outputs alone.
void ReadQuarantineSidecar(const std::string& sidecar_path, uint32_t shard,
                           std::string* reason, uint64_t* retries) {
  std::string text;
  if (!ReadFileToString(sidecar_path, &text)) {
    return;
  }
  auto document = ParseJson(text);
  if (!document.ok()) {
    return;
  }
  const JsonValue* recorded = document->Find("reason");
  if (recorded != nullptr && recorded->IsString()) {
    *reason = recorded->string;
  }
  const JsonValue* shards = document->Find("shards");
  if (shards == nullptr || !shards->IsArray()) {
    return;
  }
  for (const JsonValue& row : shards->array) {
    const JsonValue* index = row.Find("shard");
    const JsonValue* row_retries = row.Find("retries");
    if (index != nullptr && index->IsNumber() &&
        static_cast<uint32_t>(index->number) == shard &&
        row_retries != nullptr && row_retries->IsNumber()) {
      *retries = static_cast<uint64_t>(row_retries->number);
    }
  }
}

// `rvmutl LOG health`: offline per-shard fault-domain probe (DESIGN.md §13).
// One row per shard; the exit code is the worst shard's severity:
//   0  ok          — device opens cleanly, no quarantine sidecar
//   1  quarantined — a sidecar from a prior in-process quarantine is present
//                    but the device opens: `rvmutl LOG repair` (or a plain
//                    restart) should restore it
//   2  quarantined — the device itself cannot be opened; the fault persists
// The in-process states `retrying` and `repairing` are transient and only
// observable through a live instance's gauges (Introspect / `rvmutl top`);
// an offline probe sees their end state. `--json[=FILE]` emits the
// rvm-telemetry-v1 schema with a per-shard "shards" array.
int CmdHealth(const std::string& log_path, int argc, char** argv) {
  bool json = false;
  std::string json_path;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(std::strlen("--json="));
    } else {
      std::fprintf(stderr, "unknown health option: %s\n", arg.c_str());
      return 2;
    }
  }
  Env* env = GetRealEnv();
  auto shard_count = LogDevice::DetectShardCount(env, log_path);
  if (!shard_count.ok()) {
    std::fprintf(stderr, "cannot read log %s: %s\n", log_path.c_str(),
                 shard_count.status().ToString().c_str());
    return 2;
  }
  struct Row {
    uint32_t shard = 0;
    std::string path;
    const char* state = "ok";
    int severity = 0;
    std::string cause;
    bool sidecar = false;
    uint64_t retries_at_quarantine = 0;
    uint64_t in_use = 0;
    uint64_t capacity = 0;
  };
  std::vector<Row> rows;
  int worst = 0;
  for (uint32_t s = 0; s < *shard_count; ++s) {
    Row row;
    row.shard = s;
    row.path = *shard_count == 1 ? log_path : ShardLogPath(log_path, s);
    const std::string sidecar_path = row.path + ".quarantine.json";
    row.sidecar = env->Exists(sidecar_path);
    if (row.sidecar) {
      ReadQuarantineSidecar(sidecar_path, s, &row.cause,
                            &row.retries_at_quarantine);
    }
    auto log = LogDevice::Open(env, row.path);
    if (!log.ok()) {
      row.state = "quarantined";
      row.severity = 2;
      if (row.cause.empty()) {
        row.cause = log.status().ToString();
      }
    } else {
      row.in_use = (*log)->used();
      row.capacity = (*log)->capacity();
      if (row.sidecar) {
        row.state = "quarantined";
        row.severity = 1;
        if (row.cause.empty()) {
          row.cause = "quarantine sidecar present";
        }
      }
    }
    worst = std::max(worst, row.severity);
    rows.push_back(std::move(row));
  }
  if (json) {
    std::string shards_json = "\"log\":\"" + JsonEscape(log_path) +
                              "\",\"worst\":" + std::to_string(worst) +
                              ",\"shards\":[";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"shard\":%u,\"state\":\"%s\",\"severity\":%d,"
                    "\"sidecar\":%d,\"retries_at_quarantine\":%llu,"
                    "\"in_use\":%llu,\"capacity\":%llu,\"cause\":\"",
                    i > 0 ? "," : "", row.shard, row.state, row.severity,
                    row.sidecar ? 1 : 0,
                    static_cast<unsigned long long>(row.retries_at_quarantine),
                    static_cast<unsigned long long>(row.in_use),
                    static_cast<unsigned long long>(row.capacity));
      shards_json += buf;
      shards_json += JsonEscape(row.cause) + "\"}";
    }
    shards_json += "]";
    RvmStatistics probe_stats;
    const std::string document = TelemetryJsonDocument(
        "rvmutl-health",
        {StatisticsJsonRun("health-probe", probe_stats,
                           {{"shards", *shard_count},
                            {"worst", static_cast<uint64_t>(worst)}})},
        shards_json);
    if (json_path.empty()) {
      std::printf("%s", document.c_str());
    } else {
      std::FILE* out = std::fopen(json_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
        return 2;
      }
      std::fputs(document.c_str(), out);
      std::fclose(out);
    }
    return worst;
  }
  std::printf("%5s  %-12s %22s  %s\n", "shard", "state", "in-use/capacity",
              "cause");
  for (const Row& row : rows) {
    char usage[48] = "-";
    if (row.capacity > 0) {
      std::snprintf(usage, sizeof(usage), "%llu/%llu",
                    static_cast<unsigned long long>(row.in_use),
                    static_cast<unsigned long long>(row.capacity));
    }
    std::string cause = row.cause.empty() ? "-" : row.cause;
    if (row.sidecar) {
      cause += " (quarantine sidecar, " +
               std::to_string(row.retries_at_quarantine) +
               " retries at quarantine)";
    }
    std::printf("%5u  %-12s %22s  %s\n", row.shard, row.state, usage,
                cause.c_str());
  }
  if (worst == 0) {
    std::printf("all %u shard(s) healthy\n", *shard_count);
  } else {
    std::printf("worst shard severity %d — %s\n", worst,
                worst == 1 ? "device readable; run 'repair' to clear the "
                             "quarantine"
                           : "device unreadable; restore or replace the shard "
                             "file, then run 'repair'");
  }
  return worst;
}

// `rvmutl LOG repair`: offline shard repair. A process restart discards the
// in-memory quarantine state, and Initialize re-runs five-phase recovery
// across every shard — including a healed or replaced `.shard<K>` file — so
// the offline analogue of RvmInstance::RepairShard(shard) is simply a clean
// recovery over the repaired device. This command runs that recovery,
// verifies every shard comes back healthy, clears stale quarantine sidecars,
// and reports per-shard results. A live instance should instead call
// RepairShard(shard) in-process (no restart, healthy shards keep
// committing throughout).
int CmdRepair(const std::string& log_path) {
  Env* env = GetRealEnv();
  RvmOptions options;
  options.log_path = log_path;
  auto shard_count = LogDevice::DetectShardCount(env, log_path);
  if (shard_count.ok()) {
    options.log_shards = *shard_count;
  }
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr,
                 "repair failed: recovery did not complete: %s\n"
                 "  restore the failed .shard<K> file from a backup, or "
                 "replace it with a\n  freshly created device of the same "
                 "size, then re-run repair\n",
                 rvm.status().ToString().c_str());
    return 1;
  }
  int failures = 0;
  const uint32_t shards = (*rvm)->log_shards();
  for (uint32_t s = 0; s < shards; ++s) {
    if ((*rvm)->shard_health(s) == RvmInstance::ShardHealth::kOk) {
      std::printf("shard %u: healthy (recovery replayed its log)\n", s);
    } else {
      std::printf("shard %u: STILL UNHEALTHY: %s\n", s,
                  (*rvm)->shard_status(s).ToString().c_str());
      ++failures;
    }
  }
  Status terminated = (*rvm)->Terminate();
  if (!terminated.ok()) {
    std::fprintf(stderr, "terminate: %s\n", terminated.ToString().c_str());
    return 1;
  }
  // Recovery re-validated the shards; stale sidecars would make the next
  // `health` probe cry wolf.
  for (uint32_t s = 0; s < shards; ++s) {
    const std::string path = shards == 1 ? log_path : ShardLogPath(log_path, s);
    const std::string sidecar = path + ".quarantine.json";
    if (env->Exists(sidecar)) {
      (void)env->Delete(sidecar);
      std::printf("shard %u: removed stale %s\n", s, sidecar.c_str());
    }
  }
  if (failures == 0) {
    std::printf("repair complete: all %u shard(s) healthy\n", shards);
  }
  return failures == 0 ? 0 : 1;
}

// `rvmutl LOG scrub`: Initialize (running recovery), then walk every data
// segment through the online scrubber. Mismatched pages are repaired from
// live log records when the damage is still inside the pre-truncation
// window; otherwise the owning shard is quarantined. Exit 0 only when every
// detected mismatch was repaired and nothing was quarantined.
int CmdScrub(const std::string& log_path) {
  RvmOptions options;
  options.log_path = log_path;
  auto shard_count = LogDevice::DetectShardCount(GetRealEnv(), log_path);
  if (shard_count.ok()) {
    options.log_shards = *shard_count;
  }
  auto rvm = RvmInstance::Initialize(options);
  if (!rvm.ok()) {
    std::fprintf(stderr, "cannot initialize on log %s: %s\n", log_path.c_str(),
                 rvm.status().ToString().c_str());
    return 1;
  }
  RvmInstance::ScrubReport total;
  const uint32_t shards = (*rvm)->log_shards();
  for (uint32_t s = 0; s < shards; ++s) {
    auto report = (*rvm)->ScrubShard(s);
    if (!report.ok()) {
      std::fprintf(stderr, "shard %u: scrub failed: %s\n", s,
                   report.status().ToString().c_str());
      return 1;
    }
    if (shards > 1) {
      std::printf("shard %u: %" PRIu64 " page(s) scrubbed, %" PRIu64
                  " mismatch(es), %" PRIu64 " repaired, %" PRIu64
                  " quarantined\n",
                  s, report->pages_scrubbed, report->mismatches,
                  report->repaired, report->quarantined);
    }
    total.Merge(*report);
  }
  std::printf("scrub: %" PRIu64 " page(s) scrubbed, %" PRIu64
              " mismatch(es), %" PRIu64 " repaired from the log, %" PRIu64
              " quarantined\n",
              total.pages_scrubbed, total.mismatches, total.repaired,
              total.quarantined);
  for (uint32_t s = 0; s < shards; ++s) {
    if ((*rvm)->shard_health(s) != RvmInstance::ShardHealth::kOk) {
      std::printf("shard %u: UNHEALTHY: %s\n", s,
                  (*rvm)->shard_status(s).ToString().c_str());
    }
  }
  // Quarantine poisons the shard (or, single-shard, the instance) and
  // Terminate may refuse; the damage report above is the command's product
  // either way.
  (void)(*rvm)->Terminate();
  return total.mismatches == total.repaired && total.quarantined == 0 ? 0 : 1;
}

// Prints one schedule outcome. Failing schedules lead with their repro
// string so an operator (or CI log scraper) can replay them directly.
void PrintOutcome(const ScheduleOutcome& outcome) {
  if (outcome.pass) {
    std::printf("PASS %s%s%s%s%s%s (recovered to txn %" PRIu64 ")\n",
                outcome.schedule.ToString().c_str(),
                outcome.fail_stop ? " [fail-stop]" : "",
                outcome.truncation_window ? " [truncation window]" : "",
                outcome.two_pc_window ? " [2pc window]" : "",
                outcome.quarantine_window ? " [quarantine window]" : "",
                outcome.repair_window ? " [repair window]" : "",
                outcome.recovered_prefix);
  } else {
    std::printf("FAIL %s  %s\n", outcome.schedule.ToString().c_str(),
                outcome.detail.c_str());
    if (!outcome.trace_jsonl.empty()) {
      // Flight recorder of the failing instance, one JSONL event per line —
      // what recovery actually did before the oracle rejected the image.
      std::printf("  trace of failing instance:\n");
      for (size_t start = 0; start < outcome.trace_jsonl.size();) {
        size_t end = outcome.trace_jsonl.find('\n', start);
        if (end == std::string::npos) {
          end = outcome.trace_jsonl.size();
        }
        std::printf("    %s\n",
                    outcome.trace_jsonl.substr(start, end - start).c_str());
        start = end + 1;
      }
    }
  }
}

int CmdExplore(int argc, char** argv) {
  CheckerWorkload workload;
  ExploreLimits limits;
  std::string replay;
  std::string out_path;
  bool verbose = false;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::optional<std::string_view> v;
    bool ok = true;
    if ((v = FlagValue(arg, "--replay="))) {
      replay = *v;
    } else if ((v = FlagValue(arg, "--out="))) {
      out_path = *v;
    } else if ((v = FlagValue(arg, "--txns="))) {
      ok = ParseUnsigned("--txns", *v, &workload.total_txns);
    } else if ((v = FlagValue(arg, "--flush-every="))) {
      ok = ParseUnsigned("--flush-every", *v, &workload.flush_every);
    } else if ((v = FlagValue(arg, "--shards="))) {
      ok = ParseUnsigned("--shards", *v, &workload.log_shards);
    } else if ((v = FlagValue(arg, "--regions="))) {
      ok = ParseUnsigned("--regions", *v, &workload.regions);
    } else if ((v = FlagValue(arg, "--fault-shard="))) {
      ok = ParseUnsigned("--fault-shard", *v, &workload.fault_shard);
    } else if ((v = FlagValue(arg, "--fault-at="))) {
      ok = ParseUnsigned("--fault-at", *v, &workload.fault_at_txn);
    } else if (arg == "--epoch") {
      workload.use_incremental_truncation = false;
    } else if (arg == "--spans") {
      // Span tracing on the workload instance: sample every transaction and
      // treat every commit as a slow outlier, the heaviest capture setting.
      // Sweeps must be schedule-identical to the same sweep without it.
      workload.span_sample_rate = 1;
      workload.slow_commit_threshold_us = 1;
    } else if ((v = FlagValue(arg, "--depth="))) {
      ok = ParseUnsigned("--depth", *v, &limits.max_depth);
    } else if ((v = FlagValue(arg, "--forward-stride="))) {
      ok = ParseUnsigned("--forward-stride", *v, &limits.forward_stride);
    } else if ((v = FlagValue(arg, "--recovery-stride="))) {
      ok = ParseUnsigned("--recovery-stride", *v, &limits.recovery_stride);
    } else if ((v = FlagValue(arg, "--max-schedules="))) {
      ok = ParseUnsigned("--max-schedules", *v, &limits.max_schedules);
    } else if ((v = FlagValue(arg, "--subset-seeds="))) {
      // Comma-separated seeds, applied at both forward and recovery points.
      const std::string seeds(*v);
      for (const char* p = seeds.c_str(); *p != '\0';) {
        char* end = nullptr;
        uint64_t seed = std::strtoull(p, &end, 10);
        if (end == p || seed == 0) {
          std::fprintf(stderr, "bad --subset-seeds value (nonzero comma-"
                       "separated integers): %s\n", seeds.c_str());
          return 2;
        }
        limits.forward_subset_seeds.push_back(seed);
        limits.recovery_subset_seeds.push_back(seed);
        p = *end == ',' ? end + 1 : end;
      }
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown explore option: %s\n", argv[i]);
      return 2;
    }
    if (!ok) {
      return 2;
    }
  }

  if (workload.fault_shard != CheckerWorkload::kNoFaultShard &&
      (workload.log_shards < 2 ||
       workload.fault_shard >= workload.log_shards)) {
    std::fprintf(stderr,
                 "--fault-shard=%u needs --shards=N with N > 1 and the fault "
                 "shard in range (quarantine is a multi-shard fault domain; "
                 "a single-shard failure poisons the instance)\n",
                 workload.fault_shard);
    return 2;
  }

  CrashExplorer explorer(workload);
  if (!replay.empty()) {
    auto schedule = CrashSchedule::Parse(replay);
    if (!schedule.ok()) {
      std::fprintf(stderr, "bad --replay string: %s\n",
                   schedule.status().ToString().c_str());
      return 2;
    }
    ScheduleOutcome outcome = explorer.RunSchedule(*schedule);
    PrintOutcome(outcome);
    return outcome.pass ? 0 : 1;
  }

  std::FILE* out = nullptr;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 2;
    }
  }
  uint64_t failures = 0;
  auto on_result = [&](const ScheduleOutcome& outcome) {
    if (!outcome.pass) {
      ++failures;
      PrintOutcome(outcome);
      if (out != nullptr) {
        std::fprintf(out, "%s\n", outcome.schedule.ToString().c_str());
        std::fflush(out);
      }
    } else if (verbose) {
      PrintOutcome(outcome);
    }
  };
  auto stats = explorer.ExploreAll(limits, on_result);
  if (out != nullptr) {
    std::fclose(out);
  }
  if (!stats.ok()) {
    std::fprintf(stderr, "explore failed: %s\n",
                 stats.status().ToString().c_str());
    return 2;
  }
  std::printf("explored %" PRIu64 " crash schedule(s): %" PRIu64 " passed, %"
              PRIu64 " failed\n",
              stats->schedules_run, stats->passed, stats->failed);
  std::printf("  forward op boundaries: %" PRIu64 "  max depth: %" PRIu64
              "  fail-stops: %" PRIu64 "  truncation-window crashes: %" PRIu64
              "  2pc-window crashes: %" PRIu64
              "  quarantine-window crashes: %" PRIu64
              "  repair-window crashes: %" PRIu64 "%s\n",
              stats->baseline_ops, stats->max_depth_reached, stats->fail_stops,
              stats->truncation_window_schedules,
              stats->two_pc_window_schedules,
              stats->quarantine_window_schedules,
              stats->repair_window_schedules,
              stats->budget_exhausted ? "  (schedule budget exhausted)" : "");
  return failures == 0 ? 0 : 1;
}

// Opens every shard device of a (possibly multi-shard) log and hands the
// vector to `fn`. A multi-shard log (DESIGN.md §12) is a manifest at LOG
// plus "<LOG>.shard<K>" devices; every log command runs per shard, and
// `verify` exits the worst code across shards, so committed-data loss on
// any one shard (exit 3) is never masked by healthy siblings.
int WithShardDevices(
    const std::string& log_path,
    const std::function<int(std::vector<std::unique_ptr<LogDevice>>&)>& fn) {
  auto shard_count = LogDevice::DetectShardCount(GetRealEnv(), log_path);
  if (!shard_count.ok()) {
    std::fprintf(stderr, "cannot read log %s: %s\n", log_path.c_str(),
                 shard_count.status().ToString().c_str());
    return 1;
  }
  std::vector<std::unique_ptr<LogDevice>> logs;
  for (uint32_t s = 0; s < *shard_count; ++s) {
    const std::string path =
        *shard_count == 1 ? log_path : ShardLogPath(log_path, s);
    auto log = LogDevice::Open(GetRealEnv(), path);
    if (!log.ok()) {
      std::fprintf(stderr, "cannot open log %s: %s\n", path.c_str(),
                   log.status().ToString().c_str());
      return 1;
    }
    logs.push_back(std::move(*log));
  }
  return fn(logs);
}

// Runs `fn` once per shard (with a section header when there is more than
// one) and returns the worst exit code.
int ForEachShard(std::vector<std::unique_ptr<LogDevice>>& logs,
                 const std::function<int(LogDevice&)>& fn) {
  int worst = 0;
  for (uint32_t s = 0; s < logs.size(); ++s) {
    if (logs.size() > 1) {
      std::printf("=== shard %u of %zu ===\n", s, logs.size());
    }
    worst = std::max(worst, fn(*logs[s]));
  }
  return worst;
}

// ---- dispatch-table adapters -----------------------------------------
//
// Every handler takes (log_path, argc, argv) so they all fit one table
// row; top-level commands receive an empty log_path. The Initialize-family
// commands (stats/trace/repair/scrub) must NOT go through WithShardDevices:
// Initialize opens (and recovers) the log itself and must not race a second
// descriptor.

int RunStatus(const std::string& log_path, int, char**) {
  return WithShardDevices(
      log_path, [](auto& logs) { return ForEachShard(logs, CmdStatus); });
}

int RunSegments(const std::string& log_path, int, char**) {
  return WithShardDevices(
      log_path, [](auto& logs) { return ForEachShard(logs, CmdSegments); });
}

int RunRecords(const std::string& log_path, int argc, char** argv) {
  uint64_t limit = 20;
  if (argc > 3 && !ParseUnsigned("N", argv[3], &limit)) {
    return 2;
  }
  return WithShardDevices(log_path, [&](auto& logs) {
    return ForEachShard(
        logs, [&](LogDevice& log) { return CmdRecords(log, limit); });
  });
}

int RunHistory(const std::string& log_path, int argc, char** argv) {
  if (argc != 6) {
    return Usage(stderr);
  }
  // A segment's records live on exactly one shard (static striping); the
  // other shards simply contribute no history lines.
  const std::string segment = argv[3];
  uint64_t offset = 0;
  uint64_t length = 0;
  if (!ParseUnsigned("OFFSET", argv[4], &offset) ||
      !ParseUnsigned("LEN", argv[5], &length)) {
    return 2;
  }
  return WithShardDevices(log_path, [&](auto& logs) {
    return ForEachShard(logs, [&](LogDevice& log) {
      return CmdHistory(log, segment, offset, length);
    });
  });
}

int RunVerify(const std::string& log_path, int argc, char** argv) {
  bool segments_leg = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--segments") == 0) {
      segments_leg = true;
    } else {
      std::fprintf(stderr, "unknown verify option: %s\n", argv[i]);
      return 2;
    }
  }
  return WithShardDevices(log_path, [&](auto& logs) {
    int worst = ForEachShard(logs, CmdVerify);
    if (segments_leg) {
      // The data-segment leg contributes at most exit 1: exit 3 remains a
      // proof of committed-log loss, which a bad segment page is not.
      worst = std::max(worst, VerifySegments(logs));
    }
    return worst;
  });
}

int RunStats(const std::string& log_path, int argc, char** argv) {
  return CmdStats(log_path, argc, argv);
}

int RunTrace(const std::string& log_path, int argc, char** argv) {
  return CmdTrace(log_path, argc, argv);
}

int RunHealth(const std::string& log_path, int argc, char** argv) {
  return CmdHealth(log_path, argc, argv);
}

int RunRepair(const std::string& log_path, int, char**) {
  return CmdRepair(log_path);
}

int RunScrub(const std::string& log_path, int, char**) {
  return CmdScrub(log_path);
}

int RunExplore(const std::string&, int argc, char** argv) {
  return CmdExplore(argc, argv);
}

int RunWatch(const std::string&, int argc, char** argv) {
  return CmdWatch(argc, argv);
}

int RunSlo(const std::string&, int argc, char** argv) {
  return CmdSlo(argc, argv);
}

int RunTimeline(const std::string&, int argc, char** argv) {
  if (argc < 3) {
    return Usage(stderr);
  }
  return CmdTimeline(argv[2], argc, argv);
}

int RunCheckJson(const std::string&, int argc, char** argv) {
  if (argc < 3) {
    return Usage(stderr);
  }
  return CmdCheckJson(argv[2]);
}

int RunCheckMetrics(const std::string&, int argc, char** argv) {
  if (argc < 3) {
    return Usage(stderr);
  }
  return CmdCheckMetrics(argv[2]);
}

// One rvmutl subcommand. This table is the single source of truth for both
// dispatch and the usage text: a command missing from it is unreachable AND
// unlisted, so --help can no longer drift from the commands that exist (the
// help-coverage test walks this same list through the rendered output).
struct CommandSpec {
  const char* name;
  bool takes_log;        // `rvmutl LOG name ...` vs `rvmutl name ...`
  const char* synopsis;  // argument synopsis following the name
  const char* help;      // short description; '\n' separates wrapped lines
  int (*run)(const std::string& log_path, int argc, char** argv);
};

constexpr CommandSpec kCommands[] = {
    {"status", true, "", "show the status block", RunStatus},
    {"segments", true, "", "list the segment dictionary", RunSegments},
    {"records", true, "[N]", "list newest N live records (default 20)",
     RunRecords},
    {"history", true, "SEG OFFSET LEN", "modification history of a byte range",
     RunHistory},
    {"verify", true, "[--segments]",
     "validate the live log structure (exit 3 if\n"
     "committed data is lost); --segments also checks\n"
     "data-segment pages against their .chk sidecars\n"
     "(failures exit 1, never 3)",
     RunVerify},
    {"scrub", true, "",
     "run recovery, then scrub every data-segment\n"
     "page: verify checksums, repair from live log\n"
     "records, quarantine what cannot be repaired",
     RunScrub},
    {"stats", true, "[--json[=FILE]]",
     "run recovery, print RVM statistics (--json\n"
     "emits the rvm-telemetry-v1 schema)",
     RunStats},
    {"trace", true, "[--shard=K]",
     "run recovery, dump the event ring as an\n"
     "rvm-spans-v1 document (one record per line;\n"
     "--shard=K keeps shard K)",
     RunTrace},
    {"health", true, "[--json[=FILE]]",
     "offline per-shard fault-domain probe; exit =\n"
     "worst shard (0 ok, 1 quarantined-but-readable,\n"
     "2 device unreadable)",
     RunHealth},
    {"repair", true, "",
     "offline shard repair: re-run recovery over\n"
     "healed/replaced shard files and clear stale\n"
     "quarantine sidecars (a live instance calls\n"
     "RepairShard() in-process instead)",
     RunRepair},
    {"explore", false, "[options]",
     "enumerate crash schedules against the oracle;\n"
     "--txns=N --flush-every=N --epoch --depth=N\n"
     "--forward-stride=N --recovery-stride=N\n"
     "--subset-seeds=a,b --shards=N --regions=N\n"
     "(sharded 2PC sweep), --fault-shard=N\n"
     "--fault-at=M (quarantine+repair sweep), --spans\n"
     "--max-schedules=N --out=FILE -v\n"
     "--replay=STRING (re-run one schedule)",
     RunExplore},
    {"watch", false, "[options]",
     "live monitor over a scratch workload: the\n"
     "OpenMetrics exposition (DESIGN.md §16), or\n"
     "with --gauges the gauge table (§11);\n"
     "--duration-ms=N or --txns=N (stop after N\n"
     "commits) --interval-ms=N --threads=N\n"
     "--shards=N (adds cross-shard 2PC commits)\n"
     "--limit=N --filter=SUBSTR --port=N (serve\n"
     "/metrics + /healthz; 0 picks an ephemeral\n"
     "port) --rules=FILE (arm the SLO engine,\n"
     "evaluated once per --interval-ms refresh)\n"
     "--fault-shard=K --fault-after-ms=N (chaos:\n"
     "quarantine shard K mid-run, then repair it)\n"
     "--spans=FILE (rvm-spans-v1 JSONL)\n"
     "--chrome=FILE (Chrome trace for Perfetto)\n"
     "--sample=N (1-in-N commit trees, default 1)\n"
     "--slow-us=N (slow-commit outliers)",
     RunWatch},
    {"timeline", false, "FILE [--shard=K]",
     "validate and render an rvm-timeseries-v2 dump\n"
     "(exit codes like check-json; --shard=K renders\n"
     "shard K's slice)",
     RunTimeline},
    {"check-json", false, "FILE",
     "validate FILE against the telemetry schema it\n"
     "declares, dispatched through the registry (see\n"
     "the schema list below)",
     RunCheckJson},
    {"check-metrics", false, "FILE",
     "lint an OpenMetrics exposition (a /metrics\n"
     "body or a monitor export file)",
     RunCheckMetrics},
    {"slo", false, "--rules=FILE [--replay=FILE]",
     "parse SLO rules; with --replay, re-run them\n"
     "over a recorded rvm-timeseries-v2 document and\n"
     "print firing/resolved transitions\n"
     "(--expect-firing=NAME exits 0 iff NAME fired)",
     RunSlo},
};

// Renders the usage text from kCommands — the same table Main() dispatches
// on. Always returns 2 (the bad-usage exit code); the explicit --help path
// discards it and exits 0.
int Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: rvmutl LOG COMMAND [ARGS]   |   rvmutl COMMAND "
               "[ARGS]\n");
  const auto print = [out](const CommandSpec& spec) {
    std::string heading = "  ";
    heading += spec.name;
    if (spec.synopsis[0] != '\0') {
      heading += ' ';
      heading += spec.synopsis;
    }
    constexpr size_t kHelpColumn = 28;
    if (heading.size() < kHelpColumn) {
      heading.append(kHelpColumn - heading.size(), ' ');
    } else {
      heading += '\n';
      heading.append(kHelpColumn, ' ');
    }
    std::string_view help = spec.help;
    bool first = true;
    while (!help.empty()) {
      const size_t newline = help.find('\n');
      const std::string_view line = help.substr(0, newline);
      help.remove_prefix(newline == std::string_view::npos ? help.size()
                                                           : newline + 1);
      if (first) {
        std::fprintf(out, "%s%.*s\n", heading.c_str(),
                     static_cast<int>(line.size()), line.data());
        first = false;
      } else {
        std::fprintf(out, "%*s%.*s\n", static_cast<int>(kHelpColumn), "",
                     static_cast<int>(line.size()), line.data());
      }
    }
  };
  std::fprintf(out, "\nlog commands (rvmutl LOG COMMAND):\n");
  for (const CommandSpec& spec : kCommands) {
    if (spec.takes_log) {
      print(spec);
    }
  }
  std::fprintf(out, "\ntop-level commands (rvmutl COMMAND):\n");
  for (const CommandSpec& spec : kCommands) {
    if (!spec.takes_log) {
      print(spec);
    }
  }
  // The registered schemas come from the registry itself, so this list can
  // no more drift than the command table can.
  std::fprintf(out, "\ncheck-json schemas:");
  for (const JsonSchema& schema : JsonSchemaRegistry()) {
    std::fprintf(out, " %s", schema.name);
  }
  std::fprintf(
      out,
      "\n\nMulti-shard logs (a manifest at LOG plus <LOG>.shard<K>): log\n"
      "commands print one section per shard; verify exits the worst\n"
      "code across shards.\n"
      "\n"
      "exit codes: 0 ok; 1 failure (invalid document, checksum\n"
      "mismatch, quarantined shard, SLO rule fired); 2 usage error or\n"
      "unreadable file; 3 proven committed-log loss (verify) or\n"
      "invalid rules/replay (slo). health exits the worst shard state\n"
      "(0 ok, 1 quarantined, 2 unreadable).\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc >= 2 &&
      (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0 ||
       std::strcmp(argv[1], "help") == 0)) {
    Usage(stdout);
    return 0;
  }
  // Top-level commands match on argv[1] first (so a log file that happens to
  // share a command's name cannot shadow one), log commands on argv[2].
  if (argc >= 2) {
    for (const CommandSpec& spec : kCommands) {
      if (!spec.takes_log && std::strcmp(argv[1], spec.name) == 0) {
        return spec.run("", argc, argv);
      }
    }
  }
  if (argc >= 3) {
    for (const CommandSpec& spec : kCommands) {
      if (spec.takes_log && std::strcmp(argv[2], spec.name) == 0) {
        return spec.run(argv[1], argc, argv);
      }
    }
  }
  return Usage(stderr);
}

}  // namespace
}  // namespace rvm

int main(int argc, char** argv) { return rvm::Main(argc, argv); }
