#include "src/monitor/slo.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>

#include "src/telemetry/json.h"

namespace rvm {

bool SloRule::Violates(double value) const {
  switch (op) {
    case Op::kGt:
      return value > threshold;
    case Op::kGe:
      return value >= threshold;
    case Op::kLt:
      return value < threshold;
    case Op::kLe:
      return value <= threshold;
  }
  return false;
}

namespace {

Status RuleError(size_t line_number, const std::string& what) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rules line %zu: ", line_number);
  return InvalidArgument(buf + what);
}

bool ValidIdentifier(const std::string& token) {
  if (token.empty()) {
    return false;
  }
  for (char c : token) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool ParseNumber(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

}  // namespace

StatusOr<std::vector<SloRule>> ParseSloRules(std::string_view text) {
  std::vector<SloRule> rules;
  std::set<std::string> names;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view raw = text.substr(
        start, nl == std::string_view::npos ? std::string_view::npos
                                            : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_number;
    std::string line(raw);
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::vector<std::string> fields;
    for (std::string token; tokens >> token;) {
      fields.push_back(token);
    }
    if (fields.empty()) {
      continue;
    }
    if (fields[0] != "rule") {
      return RuleError(line_number, "expected 'rule', got '" + fields[0] + "'");
    }
    if (fields.size() < 5) {
      return RuleError(line_number,
                       "expected: rule <name> <signal> <op> <value> ...");
    }
    SloRule rule;
    rule.name = fields[1];
    rule.signal = fields[2];
    if (!ValidIdentifier(rule.name) || !ValidIdentifier(rule.signal)) {
      return RuleError(line_number, "rule and signal names must be "
                                    "identifiers");
    }
    if (!names.insert(rule.name).second) {
      return RuleError(line_number, "duplicate rule name '" + rule.name + "'");
    }
    const std::string& op = fields[3];
    if (op == ">") {
      rule.op = SloRule::Op::kGt;
    } else if (op == ">=") {
      rule.op = SloRule::Op::kGe;
    } else if (op == "<") {
      rule.op = SloRule::Op::kLt;
    } else if (op == "<=") {
      rule.op = SloRule::Op::kLe;
    } else {
      return RuleError(line_number, "operator must be one of > >= < <=");
    }
    if (!ParseNumber(fields[4], &rule.threshold)) {
      return RuleError(line_number, "unparseable threshold '" + fields[4] +
                                        "'");
    }
    bool saw_for = false;
    bool saw_window = false;
    bool saw_burn = false;
    for (size_t i = 5; i < fields.size(); ++i) {
      const std::string& field = fields[i];
      size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return RuleError(line_number, "expected key=value, got '" + field +
                                          "'");
      }
      std::string key = field.substr(0, eq);
      double value;
      if (!ParseNumber(field.substr(eq + 1), &value)) {
        return RuleError(line_number, "unparseable value in '" + field + "'");
      }
      if (key == "for") {
        if (value < 1 || value != static_cast<uint64_t>(value)) {
          return RuleError(line_number, "for= must be a positive integer");
        }
        rule.for_samples = static_cast<uint64_t>(value);
        saw_for = true;
      } else if (key == "window") {
        if (value < 1 || value != static_cast<uint64_t>(value)) {
          return RuleError(line_number, "window= must be a positive integer");
        }
        rule.window_samples = static_cast<uint64_t>(value);
        saw_window = true;
      } else if (key == "burn") {
        if (!(value > 0) || value > 1) {
          return RuleError(line_number, "burn= must be in (0, 1]");
        }
        rule.burn_budget = value;
        saw_burn = true;
      } else {
        return RuleError(line_number, "unknown key '" + key + "'");
      }
    }
    if (saw_window != saw_burn) {
      return RuleError(line_number, "window= and burn= must appear together");
    }
    if (saw_for && saw_window) {
      return RuleError(line_number,
                       "for= and window=/burn= are mutually exclusive");
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

SloEngine::SloEngine(std::vector<SloRule> rules)
    : rules_(std::move(rules)), states_(rules_.size()) {}

std::vector<SloTransition> SloEngine::Evaluate(
    uint64_t timestamp_us, const std::map<std::string, double>& signals) {
  std::vector<SloTransition> transitions;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    auto it = signals.find(rule.signal);
    if (it == signals.end()) {
      continue;  // absent signal: the rule's state is frozen, not reset
    }
    double value = it->second;
    state.last_value = value;
    state.ever_sampled = true;
    bool bad = rule.Violates(value);
    bool should_fire;
    if (rule.is_burn_rate()) {
      state.window.push_back(bad);
      state.window_bad += bad ? 1 : 0;
      if (state.window.size() > rule.window_samples) {
        state.window_bad -= state.window.front() ? 1 : 0;
        state.window.pop_front();
      }
      double fraction = static_cast<double>(state.window_bad) /
                        static_cast<double>(rule.window_samples);
      should_fire = fraction > rule.burn_budget;
    } else {
      state.consecutive_bad = bad ? state.consecutive_bad + 1 : 0;
      // Fire after for_samples consecutive violations; resolve on the first
      // clean sample.
      should_fire = state.firing ? bad
                                 : state.consecutive_bad >= rule.for_samples;
    }
    if (should_fire != state.firing) {
      state.firing = should_fire;
      state.since_us = timestamp_us;
      transitions.push_back({rule.name, i, should_fire, timestamp_us, value});
    }
  }
  return transitions;
}

bool SloEngine::any_firing() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const RuleState& state : states_) {
    if (state.firing) {
      return true;
    }
  }
  return false;
}

std::string SloEngine::StateJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    const RuleState& state = states_[i];
    if (i > 0) {
      out += ',';
    }
    out += "{\"rule\":\"" + JsonEscape(rule.name) + "\",\"signal\":\"" +
           JsonEscape(rule.signal) + "\",\"firing\":";
    out += state.firing ? "true" : "false";
    std::snprintf(buf, sizeof(buf), ",\"since_us\":%" PRIu64, state.since_us);
    out += buf;
    if (state.ever_sampled) {
      if (state.last_value ==
          static_cast<double>(static_cast<uint64_t>(state.last_value))) {
        std::snprintf(buf, sizeof(buf), ",\"value\":%llu",
                      static_cast<unsigned long long>(state.last_value));
      } else {
        std::snprintf(buf, sizeof(buf), ",\"value\":%.6f", state.last_value);
      }
      out += buf;
    }
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace rvm
