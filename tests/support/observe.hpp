#pragma once
// Observational equivalence of State Graphs.
//
// Signal insertion must not change the circuit's observable behaviour: after
// hiding the inserted internal signals, the new SG must be weakly bisimilar
// to the original one.  This module implements weak bisimulation over a
// chosen set of visible signals (internal transitions become tau moves) and
// is used by the test suite to validate every accepted insertion end to end
// — a stronger statement than the per-property SIP checks.  It lives in the
// test support library because nothing in the flow calls it.

#include <string>
#include <vector>

#include "sg/state_graph.hpp"

namespace sitm {

struct ObserveResult {
  bool equivalent = true;
  std::string why;  ///< counterexample description when not equivalent

  explicit operator bool() const { return equivalent; }
};

/// Weak bisimulation check between `a` and `b` over the signals named in
/// `visible` (all other signals are hidden tau moves).  Both graphs must
/// contain every visible signal; the comparison starts from the initial
/// states.
ObserveResult weakly_bisimilar(const StateGraph& a, const StateGraph& b,
                               const std::vector<std::string>& visible);

/// Convenience: compare `before` with `after` hiding every signal of `after`
/// that does not exist in `before` (the inserted internal signals).
ObserveResult observationally_equivalent(const StateGraph& before,
                                         const StateGraph& after);

}  // namespace sitm
