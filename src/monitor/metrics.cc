#include "src/monitor/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <utility>

namespace rvm {
namespace {

// Deterministic number rendering shared by gauges and histogram sums:
// integral values print without a fraction (and without precision loss up to
// 2^64), everything else with fixed six-digit precision — the same policy as
// GaugesJson, so expositions diff cleanly across runs.
std::string FormatMetricValue(double value) {
  char buf[64];
  if (value >= 0 && value == static_cast<double>(static_cast<uint64_t>(value))) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
  } else if (value < 0 &&
             value == static_cast<double>(static_cast<int64_t>(value))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6f", value);
  }
  return buf;
}

// Label values escape backslash, double-quote and newline per the spec.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderLabels(const std::vector<MetricLabel>& labels,
                         const std::string* le = nullptr) {
  if (labels.empty() && le == nullptr) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const MetricLabel& label : labels) {
    if (!first) {
      out += ',';
    }
    out += label.name + "=\"" + EscapeLabelValue(label.value) + "\"";
    first = false;
  }
  if (le != nullptr) {
    if (!first) {
      out += ',';
    }
    out += "le=\"" + *le + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

MetricsRegistry::Family& MetricsRegistry::FamilyFor(std::string_view name,
                                                    std::string_view help,
                                                    MetricType type) {
  for (Family& family : families_) {
    if (family.name == name) {
      return family;
    }
  }
  Family family;
  family.name = std::string(name);
  family.help = std::string(help);
  family.type = type;
  families_.push_back(std::move(family));
  return families_.back();
}

void MetricsRegistry::AddCounter(std::string_view name, std::string_view help,
                                 uint64_t value,
                                 std::vector<MetricLabel> labels) {
  Sample sample;
  sample.labels = std::move(labels);
  sample.counter_value = value;
  FamilyFor(name, help, MetricType::kCounter).samples.push_back(
      std::move(sample));
}

void MetricsRegistry::AddGauge(std::string_view name, std::string_view help,
                               double value, std::vector<MetricLabel> labels) {
  Sample sample;
  sample.labels = std::move(labels);
  sample.gauge_value = value;
  FamilyFor(name, help, MetricType::kGauge).samples.push_back(
      std::move(sample));
}

void MetricsRegistry::AddHistogram(std::string_view name,
                                   std::string_view help,
                                   const LatencyHistogram::Snapshot& snapshot,
                                   std::vector<MetricLabel> labels) {
  Sample sample;
  sample.labels = std::move(labels);
  sample.histogram = snapshot;
  FamilyFor(name, help, MetricType::kHistogram).samples.push_back(
      std::move(sample));
}

std::string MetricsRegistry::RenderOpenMetrics() const {
  std::string out;
  char buf[64];
  for (const Family& family : families_) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " ";
    switch (family.type) {
      case MetricType::kCounter:
        out += "counter\n";
        break;
      case MetricType::kGauge:
        out += "gauge\n";
        break;
      case MetricType::kHistogram:
        out += "histogram\n";
        break;
    }
    for (const Sample& sample : family.samples) {
      switch (family.type) {
        case MetricType::kCounter:
          std::snprintf(buf, sizeof(buf), "%" PRIu64, sample.counter_value);
          out += family.name + "_total" + RenderLabels(sample.labels) + " " +
                 buf + "\n";
          break;
        case MetricType::kGauge:
          out += family.name + RenderLabels(sample.labels) + " " +
                 FormatMetricValue(sample.gauge_value) + "\n";
          break;
        case MetricType::kHistogram: {
          const LatencyHistogram::Snapshot& h = sample.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
            if (h.buckets[i] == 0) {
              continue;  // cumulative counts make elision lossless
            }
            cumulative += h.buckets[i];
            // The last bucket spans to UINT64_MAX; its finite bound would be
            // misleading, and the spec-mandated +Inf bucket below already
            // covers it.
            if (i == LatencyHistogram::kNumBuckets - 1) {
              continue;
            }
            std::snprintf(buf, sizeof(buf), "%" PRIu64,
                          LatencyHistogram::BucketUpperBound(i));
            std::string le = buf;
            std::snprintf(buf, sizeof(buf), "%" PRIu64, cumulative);
            out += family.name + "_bucket" +
                   RenderLabels(sample.labels, &le) + " " + buf + "\n";
          }
          std::string inf = "+Inf";
          std::snprintf(buf, sizeof(buf), "%" PRIu64, h.count);
          out += family.name + "_bucket" + RenderLabels(sample.labels, &inf) +
                 " " + buf + "\n";
          out += family.name + "_count" + RenderLabels(sample.labels) + " " +
                 buf + "\n";
          std::snprintf(buf, sizeof(buf), "%" PRIu64, h.sum);
          out += family.name + "_sum" + RenderLabels(sample.labels) + " " +
                 buf + "\n";
          break;
        }
      }
    }
  }
  out += "# EOF\n";
  return out;
}

namespace {

bool ValidMetricName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 c == '_' || c == ':';
    bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) {
      return false;
    }
  }
  return true;
}

struct ParsedSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // decoded values
  double value = 0;
  bool integral = false;  // value is a non-negative integer
};

// Parses `<name>[{labels}] <value>`; returns false with *error set on
// malformed input. No timestamps: the exposition is deterministic.
bool ParseSampleLine(std::string_view line, ParsedSample* out,
                     std::string* error) {
  size_t pos = 0;
  while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') {
    ++pos;
  }
  out->name = std::string(line.substr(0, pos));
  if (!ValidMetricName(out->name)) {
    *error = "invalid metric name";
    return false;
  }
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      size_t eq = line.find('=', pos);
      if (eq == std::string_view::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        *error = "malformed label";
        return false;
      }
      std::string label_name(line.substr(pos, eq - pos));
      if (!ValidMetricName(label_name) ||
          label_name.find(':') != std::string::npos) {
        *error = "invalid label name";
        return false;
      }
      std::string value;
      size_t i = eq + 2;
      bool closed = false;
      for (; i < line.size(); ++i) {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) {
            *error = "dangling escape in label value";
            return false;
          }
          char next = line[i + 1];
          if (next == '\\') {
            value += '\\';
          } else if (next == '"') {
            value += '"';
          } else if (next == 'n') {
            value += '\n';
          } else {
            *error = "invalid escape in label value";
            return false;
          }
          ++i;
        } else if (line[i] == '"') {
          closed = true;
          break;
        } else {
          value += line[i];
        }
      }
      if (!closed) {
        *error = "unterminated label value";
        return false;
      }
      out->labels.emplace_back(std::move(label_name), std::move(value));
      pos = i + 1;
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
      }
    }
    if (pos >= line.size() || line[pos] != '}') {
      *error = "unterminated label set";
      return false;
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    *error = "missing value";
    return false;
  }
  std::string value_token(line.substr(pos + 1));
  if (value_token.empty() ||
      value_token.find(' ') != std::string::npos) {
    *error = "malformed value (timestamps are not accepted)";
    return false;
  }
  char* end = nullptr;
  out->value = std::strtod(value_token.c_str(), &end);
  if (end == value_token.c_str() || *end != '\0' || std::isnan(out->value)) {
    *error = "unparseable value";
    return false;
  }
  out->integral = out->value >= 0 && std::floor(out->value) == out->value;
  return true;
}

// Canonical series key: name plus sorted labels, for duplicate detection.
std::string SeriesKey(const std::string& name, const ParsedSample& sample,
                      bool drop_le) {
  std::vector<std::pair<std::string, std::string>> labels;
  for (const auto& label : sample.labels) {
    if (drop_le && label.first == "le") {
      continue;
    }
    labels.push_back(label);
  }
  std::sort(labels.begin(), labels.end());
  std::string key = name;
  for (const auto& label : labels) {
    key += '\x1f' + label.first + '\x1e' + label.second;
  }
  return key;
}

Status LineError(size_t line_number, const std::string& what) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "line %zu: ", line_number);
  return InvalidArgument(buf + what);
}

}  // namespace

Status ValidateOpenMetrics(std::string_view text) {
  if (text.empty()) {
    return InvalidArgument("empty exposition");
  }
  if (text.back() != '\n') {
    return InvalidArgument("exposition must end with a newline");
  }

  struct FamilyInfo {
    MetricType type = MetricType::kGauge;
    bool has_samples = false;
  };
  std::map<std::string, FamilyInfo> families;
  std::set<std::string> series_seen;
  // Per histogram series (labels minus le): running bucket state.
  struct HistogramState {
    double last_le = -1;
    uint64_t last_cumulative = 0;
    bool saw_inf = false;
    uint64_t inf_count = 0;
    bool saw_count = false;
    uint64_t count_value = 0;
    bool saw_sum = false;
  };
  std::map<std::string, HistogramState> histograms;

  bool saw_eof = false;
  size_t line_number = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_number;
    if (saw_eof) {
      return LineError(line_number, "content after # EOF");
    }
    if (line.empty()) {
      return LineError(line_number, "blank line");
    }
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.substr(0, 2) == "# ") {
      // "# HELP <name> <text>" or "# TYPE <name> <kind>".
      std::string_view rest = line.substr(2);
      size_t space = rest.find(' ');
      std::string_view keyword = rest.substr(0, space);
      if (keyword != "HELP" && keyword != "TYPE") {
        return LineError(line_number, "unknown comment keyword");
      }
      if (space == std::string_view::npos) {
        return LineError(line_number, "truncated comment line");
      }
      rest = rest.substr(space + 1);
      space = rest.find(' ');
      std::string name(rest.substr(0, space));
      if (!ValidMetricName(name)) {
        return LineError(line_number, "invalid metric name in comment");
      }
      if (keyword == "TYPE") {
        if (space == std::string_view::npos) {
          return LineError(line_number, "TYPE line missing a kind");
        }
        std::string_view kind = rest.substr(space + 1);
        MetricType type;
        if (kind == "counter") {
          type = MetricType::kCounter;
        } else if (kind == "gauge") {
          type = MetricType::kGauge;
        } else if (kind == "histogram") {
          type = MetricType::kHistogram;
        } else {
          return LineError(line_number, "unsupported metric type '" +
                                            std::string(kind) + "'");
        }
        auto [it, inserted] = families.emplace(name, FamilyInfo{type, false});
        if (!inserted) {
          return LineError(line_number, "duplicate TYPE for " + name);
        }
      }
      continue;
    }

    ParsedSample sample;
    std::string error;
    if (!ParseSampleLine(line, &sample, &error)) {
      return LineError(line_number, error);
    }
    // Resolve the family by suffix. Counter samples are `<family>_total`;
    // histogram samples `_bucket`/`_count`/`_sum`; gauges use the bare name.
    std::string family_name = sample.name;
    std::string suffix;
    for (const char* candidate : {"_total", "_bucket", "_count", "_sum"}) {
      size_t len = std::string(candidate).size();
      if (sample.name.size() > len &&
          sample.name.compare(sample.name.size() - len, len, candidate) == 0) {
        std::string base = sample.name.substr(0, sample.name.size() - len);
        auto it = families.find(base);
        if (it != families.end() &&
            ((it->second.type == MetricType::kCounter &&
              std::string(candidate) == "_total") ||
             (it->second.type == MetricType::kHistogram &&
              std::string(candidate) != "_total"))) {
          family_name = base;
          suffix = candidate;
          break;
        }
      }
    }
    auto family_it = families.find(family_name);
    if (family_it == families.end()) {
      return LineError(line_number,
                       "sample '" + sample.name + "' has no TYPE line");
    }
    FamilyInfo& family = family_it->second;
    family.has_samples = true;
    switch (family.type) {
      case MetricType::kCounter:
        if (suffix != "_total") {
          return LineError(line_number,
                           "counter sample must use the _total suffix");
        }
        if (!sample.integral) {
          return LineError(line_number, "counter value must be a "
                                        "non-negative integer");
        }
        break;
      case MetricType::kGauge:
        if (!suffix.empty()) {
          return LineError(line_number, "gauge sample must use the bare name");
        }
        break;
      case MetricType::kHistogram: {
        if (suffix.empty()) {
          return LineError(line_number,
                           "histogram sample must use _bucket/_count/_sum");
        }
        if (!sample.integral) {
          return LineError(line_number,
                           "histogram values must be non-negative integers");
        }
        HistogramState& state =
            histograms[SeriesKey(family_name, sample, /*drop_le=*/true)];
        uint64_t value = static_cast<uint64_t>(sample.value);
        if (suffix == "_bucket") {
          const std::string* le = nullptr;
          for (const auto& label : sample.labels) {
            if (label.first == "le") {
              le = &label.second;
            }
          }
          if (le == nullptr) {
            return LineError(line_number, "_bucket sample missing le label");
          }
          double bound;
          if (*le == "+Inf") {
            if (state.saw_inf) {
              return LineError(line_number, "duplicate +Inf bucket");
            }
            state.saw_inf = true;
            state.inf_count = value;
            bound = std::numeric_limits<double>::infinity();
          } else {
            char* end = nullptr;
            bound = std::strtod(le->c_str(), &end);
            if (end == le->c_str() || *end != '\0' || bound < 0) {
              return LineError(line_number, "unparseable le bound");
            }
            if (state.saw_inf) {
              return LineError(line_number, "+Inf bucket must come last");
            }
          }
          if (bound <= state.last_le) {
            return LineError(line_number, "le bounds must increase");
          }
          if (value < state.last_cumulative) {
            return LineError(line_number,
                             "histogram buckets must be cumulative");
          }
          state.last_le = bound;
          state.last_cumulative = value;
          continue;  // bucket series dedup is the le-order check above
        }
        if (suffix == "_count") {
          state.saw_count = true;
          state.count_value = value;
        } else {
          state.saw_sum = true;
        }
        break;
      }
    }
    if (!series_seen.insert(SeriesKey(sample.name, sample, false)).second) {
      return LineError(line_number, "duplicate series " + sample.name);
    }
  }
  if (!saw_eof) {
    return InvalidArgument("missing # EOF terminator");
  }
  for (const auto& [key, state] : histograms) {
    std::string name = key.substr(0, key.find('\x1f'));
    if (!state.saw_inf) {
      return InvalidArgument("histogram " + name + " missing +Inf bucket");
    }
    if (!state.saw_count || !state.saw_sum) {
      return InvalidArgument("histogram " + name + " missing _count or _sum");
    }
    if (state.inf_count != state.count_value) {
      return InvalidArgument("histogram " + name +
                             ": +Inf bucket disagrees with _count");
    }
  }
  for (const auto& [name, info] : families) {
    if (!info.has_samples) {
      return InvalidArgument("family " + name + " declared but has no samples");
    }
  }
  return OkStatus();
}

}  // namespace rvm
