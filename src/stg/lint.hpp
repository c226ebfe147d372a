#pragma once
// Static specification lint: typed pre-flow diagnostics over a parsed STG
// (or explicit SG) that catch specification bugs *before* any state-graph
// construction.  The checks are purely structural — no token game, no
// reachability store — so linting an adversarial spec costs O(net size)
// and the serve front-end can use it as a fast reject path.
//
// Rules (each diagnostic names one):
//   alternation           a signal with rising but no falling transitions
//                         (or vice versa) can never return to its initial
//                         value — inconsistent labeling (error); a direct
//                         place arc chaining two same-polarity edges of one
//                         signal is a likely consistency violation (warning)
//   dangling-arc          a transition with an empty preset is enabled
//                         forever (error); an empty postset swallows tokens
//                         and kills liveness (warning); an isolated place
//                         does nothing (warning)
//   duplicate-arc         the same place->transition or transition->place
//                         arc twice: firing needs 2 tokens / produces 2
//                         tokens, impossible in a 1-safe net (error)
//   unreachable           a transition that cannot fire even under the
//                         optimistic token-flow closure of the initial
//                         marking (ignoring token counts) is dead under any
//                         real semantics (error)
//   idle-input            an input signal with no transitions is dead
//                         weight in every downstream stage (warning)
//   unsafe-marking        an empty initial marking deadlocks the net
//                         (error); the same place marked twice starts the
//                         net outside the 1-safe regime (error)
//   unconstrained-output  a non-input signal none of whose transitions is
//                         triggered by another signal's transition runs
//                         free of the environment (warning); a non-input
//                         signal with no transitions is never produced
//                         (warning)
//
// Severities: an `error` means the flow is guaranteed (or overwhelmingly
// likely) to fail on this spec — FlowOptions::lint turns errors into a
// typed `spec` failure at the reachability gate.  A `warning` is advice;
// it travels on the stage report but never rejects.

#include <string>
#include <vector>

#include "sg/state_graph.hpp"
#include "stg/load.hpp"
#include "stg/stg.hpp"
#include "util/json.hpp"

namespace sitm {

enum class LintRule : int {
  kAlternation = 0,
  kDanglingArc,
  kDuplicateArc,
  kUnreachable,
  kIdleInput,
  kUnsafeMarking,
  kUnconstrainedOutput,
};
inline constexpr int kNumLintRules = 7;

const char* lint_rule_name(LintRule rule);

enum class LintSeverity : int { kWarning = 0, kError };

const char* lint_severity_name(LintSeverity severity);

struct LintDiagnostic {
  LintRule rule = LintRule::kAlternation;
  LintSeverity severity = LintSeverity::kWarning;
  /// What the diagnostic is about: a signal name, a transition rendering
  /// ("a+/2"), or a place name.  Empty for net-wide findings.
  std::string subject;
  std::string message;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;
  int errors = 0;
  int warnings = 0;

  /// No errors (warnings allowed): the flow may proceed.
  bool ok() const { return errors == 0; }
  /// No diagnostics at all.
  bool clean() const { return diagnostics.empty(); }
  /// First error message, prefixed with "lint: "; empty when ok().
  std::string first_error() const;

  void add(LintRule rule, LintSeverity severity, std::string subject,
           std::string message);

  /// {"ok":…,"errors":N,"warnings":N,"diagnostics":[{rule,severity,subject,
  /// message}…]} via the shared serializer (keys in insertion order).
  Json to_json() const;
};

/// Lint a parsed STG (the .g front end).
LintReport lint_stg(const Stg& stg);

/// Lint an explicit state graph (the .sg front end).  The .sg reader
/// already enforces code consistency and reachability, so this is the
/// reduced rule set: idle signals, never-produced non-inputs, and states
/// with no successors (deadlock hints).
LintReport lint_state_graph(const StateGraph& sg);

/// Dispatch on the spec's parsed form.
LintReport lint_spec(const Spec& spec);

}  // namespace sitm
