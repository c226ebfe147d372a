#pragma once
// Complete State Coding resolution.
//
// The mapping flow requires CSC (paper Section 2.1); when a specification
// violates it, state signals must be inserted first.  This module implements
// the companion step the paper delegates to [6] ("Complete state encoding
// based on the theory of regions"): it reuses the same SIP-preserving event
// insertion machinery, choosing insertion latches whose value separates the
// conflicting states.
//
// Candidate generation: for every ordered pair of events (e1, e2) the
// candidate signal is set right after e1 fires and reset right after e2
// fires (a state-set latch over SR(e1) / SR(e2)).  A candidate is committed
// when it strictly reduces the number of CSC conflict pairs while preserving
// consistency, speed-independence and persistency.

#include <memory>
#include <string>
#include <vector>

#include "sg/state_graph.hpp"
#include "util/run_guard.hpp"

namespace sitm {

struct CscOptions {
  int max_insertions = 12;
  /// Upper bound on (e1, e2) candidate pairs examined per iteration.
  std::size_t max_candidates = 256;
  /// When > 0, rank the candidate pairs by a cheap conflict-splitting score
  /// (computed from the cached per-state output-event masks and switching
  /// regions, no insertion needed) and run the expensive insert/verify round
  /// trip only for the best K, falling back to the remaining candidates only
  /// when no top-K candidate commits.  0 (the default) evaluates candidates
  /// exhaustively in enumeration order; the ranked mode may commit a
  /// different — equally valid — latch.
  std::size_t rank_top_k = 0;
};

struct CscStep {
  std::string new_signal;
  Event set_after, reset_after;  ///< the events bounding the latch
  int conflicts_before = 0, conflicts_after = 0;
};

struct CscResult {
  bool resolved = false;
  std::string failure;
  int signals_inserted = 0;
  std::shared_ptr<StateGraph> sg;
  std::vector<CscStep> steps;
  /// Search-work counters, summed over all iterations: candidates that
  /// passed the static filters and received a conflict/state score, and
  /// successor graphs actually materialized via insert_signal.  Candidates
  /// are scored and verified on their InsertionPreview, so
  /// graphs_materialized is one per inserted signal.
  long candidates_scored = 0;
  long graphs_materialized = 0;
  /// Guard exhaustion that ended the search early (kNone = ran to
  /// completion).  When an iteration's scan was cut short but a committable
  /// candidate had already been scored, that best-so-far latch is committed
  /// and `degraded` is set: the result is a valid (possibly suboptimal)
  /// insertion, and `resolved` still reflects whether zero conflicts remain.
  GuardStop stopped = GuardStop::kNone;
  bool degraded = false;
};

/// Number of CSC conflict pairs: pairs of states with equal codes enabling
/// different non-input event sets.
int count_csc_conflicts(const StateGraph& sg);

/// Cached CSC conflict analysis of one SG revision, computed from a single
/// pass of per-state output-event masks.  The flow computes this once per SG
/// and shares it between the properties and csc stages instead of re-walking
/// the adjacency lists per query (check_csc + count_csc_conflicts each
/// rebuild the masks from scratch).
struct CscAnalysis {
  int conflict_pairs = 0;
  /// States participating in at least one conflict pair.
  DynBitset involved_states;

  bool ok() const { return conflict_pairs == 0; }
};
CscAnalysis analyze_csc(const StateGraph& sg);

/// Insert state signals until the SG satisfies CSC (or give up).  `guard`
/// (optional) bounds the search: one work unit per candidate scored; on
/// exhaustion the best already-scored candidate of the current iteration is
/// committed (graceful degradation) and the search stops with
/// `stopped`/`degraded` recorded instead of throwing.  A graph that still
/// has conflicts at 64 signals fails typed: a state code has no room for
/// another signal.
CscResult resolve_csc(const StateGraph& sg, const CscOptions& opts = {},
                      const RunGuard* guard = nullptr);

}  // namespace sitm
