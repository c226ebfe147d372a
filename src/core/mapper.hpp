#pragma once
// The technology mapping loop (paper Section 3).
//
//   while the circuit is not implementable in the library:
//     pick the event a* with the most complex monotonous cover;
//     enumerate divisors of c(a*) (kernels, co-kernels, AND/OR subsets);
//     for each divisor f: plan a SIP insertion of a new signal x = f,
//       filter by Properties 3.1 / 3.2 (progress analysis on the old SG);
//     fully resynthesize the most promising candidates (boolean division /
//       resynthesis: every cover is recomputed from scratch on the new SG,
//       which realizes the paper's global acknowledgement automatically);
//     commit the candidate with the best global progress, or give up (n.i.).
//
// A candidate is judged before its graph exists.  Its InsertionPreview
// (the copy product of the current SG and the plan) is verified by
// PreviewVerifier, and its bounds are derived from the current SG's by
// ParentBounds::after; both answer exactly what the built graph would.
// The graph is built only when the search below starts resynthesizing the
// candidate.
//
// The resynthesis is an exact best-first branch-and-bound (Lawler & Wood,
// Oper. Res. 14, 1966).  Before anything is minimized, the cover bounds
// (cover_lower_bounds of each candidate SG) give a lower bound of every
// signal's gates: the literals that cross-boundary arcs force into each
// cover (mc_cover.hpp).  Summed over the signals, that is a
// lexicographic lower bound of the candidate's final cost tuple.
// Candidates are resynthesized in the order of that bound (then state
// count, then candidate position), signal by signal, and after each signal
// the cost of the signals done so far plus the bounds of the signals still
// to do is a lower bound that only rises.  A candidate is abandoned once that
// bound, with its state count and position, can no longer beat the current
// circuit or the best candidate found so far, which may be before its
// first signal; the search stops when the next candidate in bound order
// cannot win, since no candidate behind it can either.
//
// Abandoned and unstarted candidates could never have been committed, so
// the winner is the one exhaustive resynthesis in candidate order reaches:
// the least (metrics, states, position) below the current cost.  Every
// bound is componentwise at most the final cost, so a candidate's bounded
// key is at most its final key at every step, and it is only ever compared
// against the key of a complete candidate, which only falls.  The order
// changes how much work is done (`resyntheses_pruned`,
// `signals_resynthesized`, `minimizations`), never the result.  Each
// signal's synthesis gets its bound too, and skips a complete cover the
// bound shows cannot be chosen.
//
// Each SG revision is synthesized once: the committed winner's syntheses
// serve the next iteration and MapResult::build_netlist.
//
// The paper's tuning knobs (try other events when the worst one is stuck,
// cap the number of candidates, local-vs-global acknowledgement for the
// ablation study) are exposed through MapperOptions.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/gate_library.hpp"
#include "core/insertion.hpp"
#include "core/mc_cover.hpp"
#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"

namespace sitm {

struct MapperOptions {
  GateLibrary library{2};
  McOptions mc;
  /// Apply Properties 3.1/3.2 as candidate filters before resynthesis.
  bool use_progress_filters = true;
  /// Allow transitions of the new signal to be acknowledged by covers other
  /// than the target (the paper's key improvement over [12, 4]).  When
  /// false, candidates creating any new trigger on another cover are
  /// discarded — the "local acknowledgement" baseline of the ablation.
  bool global_acknowledgement = true;
  /// Safety cap on inserted signals.
  int max_insertions = 48;
  /// How many filtered candidates are fully resynthesized per target.
  int max_full_evals = 12;
  /// Worker threads for the candidate loop.  Each candidate is an
  /// independent verify/bound/insert/resynthesize over the read-only
  /// current SG, so candidates are evaluated in parallel and the winner is
  /// chosen in candidate order — the mapped SG, netlist and steps are
  /// bit-identical at every thread count.  1 = serial, 0 = one thread per
  /// hardware core.
  int threads = 1;
};

/// Global cost of a synthesis state: number of gates exceeding the library,
/// worst gate complexity, total literals.  The mapper accepts an insertion
/// only if this tuple strictly decreases lexicographically, which makes the
/// loop terminate (the order is well-founded).
struct MapMetrics {
  int gates_over_library = 0;
  int max_complexity = 0;
  int total_literals = 0;

  auto tuple() const {
    return std::make_tuple(gates_over_library, max_complexity, total_literals);
  }
  bool operator<(const MapMetrics& o) const { return tuple() < o.tuple(); }
  bool operator==(const MapMetrics& o) const { return tuple() == o.tuple(); }

  /// Add one gate of `complexity` literals.
  void add_gate(int complexity, const GateLibrary& library);
  /// Add the cost of a disjoint set of signals: counts add, the worst gate
  /// is the larger one.  Every component only grows, so if each summand is
  /// componentwise at most another's, so is the sum, and componentwise
  /// order implies the lexicographic one.
  MapMetrics& operator+=(const MapMetrics& o);
};

/// What one synthesized signal adds to the global cost: its complete-cover
/// gate, or its set and reset gates.
MapMetrics signal_metrics(const SignalSynthesis& s, const GateLibrary& library);

/// Componentwise lower bound of signal_metrics for every synthesis of a
/// signal with bounds `b` (cover_lower_bounds) under `architecture`:
/// kComplexGate is one gate of b.complete literals, kStandardC two gates of
/// b.set and b.reset, and kAuto, which picks one of the two, the
/// componentwise minimum of both.
MapMetrics signal_metrics_bound(const CoverBounds& b, Architecture architecture,
                                const GateLibrary& library);

/// One committed decomposition step, for reporting.
struct MapStep {
  std::string new_signal;
  Cover divisor;              ///< (set) function of the inserted signal
  Cover divisor_reset;        ///< reset partner for latch insertions
  bool latch = false;         ///< sequential (SR latch) insertion
  int target_signal = -1;
  Event target_event;
  std::size_t states_before = 0, states_after = 0;
  MapMetrics before, after;   ///< global cost before/after the insertion
};

/// Result of technology mapping.
struct MapResult {
  bool implementable = false;
  std::string failure;        ///< reason when not implementable
  int signals_inserted = 0;
  /// Search statistics: divisor candidates with a legal insertion plan, and
  /// how many were fully resynthesized (the expensive step the Property
  /// 3.1/3.2 ranking is meant to save).
  long candidates_planned = 0;
  long resyntheses = 0;
  /// Of those resyntheses, how many did not run to the last signal: the
  /// cost bound abandoned them, or the best-first search stopped before
  /// them.  A work counter: it depends on the round width, so unlike the
  /// result it may differ across thread counts.
  long resyntheses_pruned = 0;
  /// Per-signal syntheses run by the candidate loop, over all resyntheses.
  /// A work counter that depends on the round width like
  /// resyntheses_pruned.
  long signals_resynthesized = 0;
  /// minimize_onoff calls of those per-signal syntheses, summed from
  /// SignalSynthesis::minimizations.  Depends on the round width too.
  long minimizations = 0;
  /// Candidate graphs built by insert_signal: the resyntheses that started
  /// (the others were verified and bounded on their previews only).
  /// Depends on the round width too.
  long graphs_materialized = 0;
  /// Final SG (with the inserted signals), its synthesis, and the options
  /// that synthesis was made with.
  std::shared_ptr<StateGraph> sg;
  std::vector<SignalSynthesis> syntheses;
  McOptions mc;
  std::vector<MapStep> steps;

  /// Standard-C netlist of the final SG, assembled from `syntheses` when
  /// `opts` gives the same results as `mc` and resynthesized otherwise.
  /// The returned netlist references *sg; keep this MapResult alive while
  /// using it.
  Netlist build_netlist(const McOptions& opts = {}) const;
};

/// Map `sg` onto the library in `opts`.  The input SG must satisfy the flow
/// preconditions (consistency, speed-independence, CSC); throws otherwise.
/// `guard` (optional) bounds the search — polled at every iteration, per
/// pre-check round and per resynthesized signal — and throws GuardExhausted
/// on exhaustion (no partial MapResult: an uncommitted decomposition has no
/// netlist worth degrading to).  `syntheses` (optional) is the synthesis of
/// `sg` under options giving the same results as `opts.mc`; it replaces the
/// first synthesis when `sg` has no unreachable states to prune.
MapResult technology_map(const StateGraph& sg, const MapperOptions& opts = {},
                         const RunGuard* guard = nullptr,
                         const std::vector<SignalSynthesis>* syntheses = nullptr);

}  // namespace sitm
