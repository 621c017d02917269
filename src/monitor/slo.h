// SloEngine: declarative service-level-objective rules evaluated over the
// sampled signal stream (DESIGN.md §16). The monitor tick produces one flat
// map of named signals per sample (every RvmGauges scalar plus the derived
// commit percentiles); the engine evaluates each rule against it and tracks
// a firing/resolved state machine per rule. Transitions — not levels — are
// the output: the monitor logs them and flips /healthz, whose body carries
// the live state.
//
// Rule grammar (one rule per line; '#' starts a comment):
//
//   rule <name> <signal> <op> <value> [for=<n>] [window=<n> burn=<f>]
//
//   <name>    identifier for the rule (unique within a file)
//   <signal>  a sampled signal name, e.g. commit_p99_us, log_utilization,
//             quarantined_shards, checksum_mismatches, slow_commits
//   <op>      one of >  >=  <  <=
//   <value>   numeric threshold
//   for=<n>   threshold rule: fire only after n consecutive violating
//             samples (default 1); resolve on the first clean sample
//   window=<n> burn=<f>
//             burn-rate rule: over a sliding window of the last n samples,
//             fire when the violating fraction exceeds f (0 < f <= 1);
//             resolve when it falls back to f or below. The two keys must
//             appear together and are mutually exclusive with for=.
//
// Evaluation is sample-synchronous and deterministic: the same rule file
// over the same sample sequence produces the same transition sequence, which
// is what lets `rvmutl slo --replay` re-run production rules offline against
// a recorded rvm-timeseries-v2 document.
//
// This file knows nothing of RvmInstance: signals are plain named numbers.
#ifndef RVM_MONITOR_SLO_H_
#define RVM_MONITOR_SLO_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace rvm {

struct SloRule {
  enum class Op { kGt, kGe, kLt, kLe };

  std::string name;
  std::string signal;
  Op op = Op::kGt;
  double threshold = 0;
  // Threshold rules: consecutive violating samples required to fire.
  uint64_t for_samples = 1;
  // Burn-rate rules: window_samples > 0 selects burn-rate mode.
  uint64_t window_samples = 0;
  double burn_budget = 0;

  bool is_burn_rate() const { return window_samples > 0; }
  bool Violates(double value) const;
};

// Parses a rule file per the grammar above. kInvalidArgument with the line
// number on malformed input, duplicate rule names, or invalid knobs.
StatusOr<std::vector<SloRule>> ParseSloRules(std::string_view text);

// One firing or resolved edge, in evaluation order.
struct SloTransition {
  std::string rule;
  // Index of the rule within the engine's rule vector.
  uint64_t rule_index = 0;
  bool firing = false;  // true: inactive -> firing; false: firing -> resolved
  uint64_t timestamp_us = 0;
  double value = 0;  // the signal value at the transition sample
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules);

  // Evaluates every rule against one sample and returns the transitions it
  // caused. Signals the sample does not carry leave their rules untouched
  // (a burn-rate window neither grows nor shrinks). Thread-safe; internally
  // locked (a leaf lock — never calls out).
  std::vector<SloTransition> Evaluate(
      uint64_t timestamp_us, const std::map<std::string, double>& signals);

  bool any_firing() const;
  size_t rule_count() const { return rules_.size(); }

  // Live per-rule state as a JSON array (deterministic member order), e.g.
  //   [{"rule":"quarantine","signal":"quarantined_shards","firing":true,
  //     "since_us":123,"value":1}]
  // — the "slo" member of the /healthz body.
  std::string StateJson() const;

 private:
  struct RuleState {
    bool firing = false;
    uint64_t consecutive_bad = 0;
    std::deque<bool> window;   // burn-rate rules: last N violation flags
    uint64_t window_bad = 0;   // count of true entries in `window`
    uint64_t since_us = 0;     // timestamp of the last transition
    double last_value = 0;
    bool ever_sampled = false;
  };

  const std::vector<SloRule> rules_;
  mutable std::mutex mu_;
  std::vector<RuleState> states_;
};

}  // namespace rvm

#endif  // RVM_MONITOR_SLO_H_
