#pragma once
// The post-insertion check on a built graph: every property the flow
// requires, re-checked over every state of `insert_signal`'s result.
//
// The reference PreviewVerifier (core/insertion) is held against: the
// same verdict, computed on the copy product instead
// (tests/insertion_oracle_test.cpp, tests/perf_equiv_test.cpp).  It lives
// in the test support library, not in libsitm, because the flow verifies
// every candidate on its preview.

#include <vector>

#include "core/insertion.hpp"
#include "sg/properties.hpp"
#include "sg/state_graph.hpp"
#include "util/dynbitset.hpp"

namespace sitm {

/// Signals whose enabled-event sets the insertion can change on some state
/// copy: the signals of original arcs dropped at excitation-region states
/// (copy missing on one x side, or an ER(x+)/ER(x-) crossing skipping the
/// pending transition).  A signal persistent in `sg` and outside this set is
/// provably still persistent after `insert_signal(sg, plan, ...)`: every
/// state copy keeps its old enabled set except ER copies, whose only edits
/// are these drops plus the new x events — so a persistency check of the
/// inserted graph only needs to revisit the disturbed signals.
DynBitset disturbed_signals(const StateGraph& sg, const InsertionPlan& plan);

/// `plan` with its excitation regions cut back to the input borders of its
/// S1 (and the initial value that goes with them): still within
/// PreviewVerifier's preconditions, but without the region growth that
/// keeps the planner's insertions persistent, so such plans fail the
/// persistency checks the planner's never do.
InsertionPlan input_border_plan(const StateGraph& sg, InsertionPlan plan);

/// Full post-insertion check: the new SG must be deterministic, commutative,
/// output-persistent (including x), optionally satisfy CSC, and every signal
/// persistent in the old SG must remain persistent (the SIP condition).
///
/// Which signals of `before` are persistent is a property of that graph
/// alone, so the baseline is computed once, in the constructor, and
/// `verify` touches no mutable state.  Holds a reference to `before`.
class InsertionVerifier {
 public:
  explicit InsertionVerifier(const StateGraph& before);

  /// Check `after` against `before`.  The SIP re-checks skip
  /// baseline-persistent signals outside `disturbed` (see
  /// `disturbed_signals`; pass every signal for the unrestricted check);
  /// the verdict and failure message are unchanged — the skipped checks
  /// cannot fail.
  PropertyResult verify(const StateGraph& after, bool require_csc,
                        const DynBitset& disturbed) const;

 private:
  const StateGraph& before_;
  std::vector<char> persistent_;  ///< per-signal: persistent in `before`?
};

}  // namespace sitm
