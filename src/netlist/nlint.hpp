#pragma once
// Static analysis of standard-C netlists — the output-side counterpart of
// `sitm lint` (src/stg/lint.hpp).
//
// Where the STG linter rejects malformed *specifications* before state-graph
// construction, nlint rejects malformed *implementations* before the (much
// more expensive) equivalence proof and token-game SI verification run.
// All rules are structural: linear scans over the SignalImpl list and
// (optionally) the tech-decomposed 2-input network, no state is read.  Every
// reachable-space statement (a complete cover covers its on-set, gate ≡
// excitation function) belongs to the equivalence checker in
// netlist/equiv.hpp.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/tech_decomp.hpp"
#include "util/json.hpp"

namespace sitm {

/// The structural rules, in evaluation order.
enum class NlintRule : int {
  kMissingImpl = 0,    ///< non-input signal with no (or duplicate) driver
  kBadReference,       ///< gate input is an input-only drive target or out of
                       ///< range of the SG's signals
  kEmptyNetwork,       ///< sequential signal whose set or reset SOP is empty
  kDriveFight,         ///< set and reset cubes share a minterm (gC drive fight)
  kFaninLimit,         ///< gC fanin above NlintOptions::max_gc_fanin
  kUnusedWire,         ///< decomposed gate output consumed by nothing
  kDuplicateGate,      ///< decomposed gates identical up to operand order
};
inline constexpr int kNumNlintRules = 7;

const char* nlint_rule_name(NlintRule rule);

enum class NlintSeverity : std::uint8_t { kError, kWarning };

const char* nlint_severity_name(NlintSeverity severity);

struct NlintDiagnostic {
  NlintRule rule;
  NlintSeverity severity;
  std::string subject;  ///< signal or wire the diagnostic is about
  std::string message;
};

struct NlintReport {
  std::vector<NlintDiagnostic> diagnostics;
  int errors = 0;
  int warnings = 0;
  int rules_run = 0;  ///< rules actually evaluated (decomp rules need a net)

  /// No errors (warnings permitted) — the netlist may proceed to the
  /// equivalence checker.
  bool ok() const { return errors == 0; }
  bool clean() const { return diagnostics.empty(); }
  /// Message of the first error, prefixed "nlint: "; empty when ok().
  std::string first_error() const;

  void add(NlintRule rule, NlintSeverity severity, std::string subject,
           std::string message);

  Json to_json() const;
};

struct NlintOptions {
  /// Warn when a gC implementation's distinct fanin signal count exceeds
  /// this (0 disables the rule).  Real gC libraries top out well below the
  /// SG's 64-signal ceiling; the default matches the largest cell the
  /// built-in sitm_gc library family is meant to model.
  int max_gc_fanin = 16;
};

/// Run every applicable rule.  `decomp` may be null, in which case the
/// post-tech_decomp wire rules (kUnusedWire / kDuplicateGate) are skipped
/// and rules_run reflects that.
NlintReport nlint_netlist(const Netlist& netlist,
                          const TechDecompResult* decomp = nullptr,
                          const NlintOptions& opts = {});

}  // namespace sitm
