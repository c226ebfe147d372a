#pragma once
// Speed-independence-preserving signal insertion (paper Sections 2.3 / 3.2).
//
// Given a candidate divisor function f over the SG signals, the bipartition
// {S0, S1} induced by f is refined into an I-partition {S0', S1', ER(x+),
// ER(x-)} by growing the excitation regions of the new signal x from the
// input borders IB(f+) / IB(f-):
//
//   1. start from ER(x+) = IB(f+);
//   2. force well-formedness: add every S1-state that is a direct
//      predecessor of an ER(x+) state;
//   3. force the SIP property: close illegal state-diamond intersections
//      (if three corners of a diamond lie in the region, add the fourth);
//   4. preserve the input/output interface: an input event enabled inside
//      ER(x+) must not be delayed, so its successor is pulled into the
//      region; repeat from step 2.
//
// The procedure reaches the unique minimal fixed point or fails when forced
// to include a state of the opposite block (then no legal insertion of x
// with function f exists).  ER(x-) is grown symmetrically inside S0.
//
// `insert_signal` then splits every state of ER(x+) / ER(x-) into a
// pre/post pair per the insertion scheme of Figure 3 and returns the new SG.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "boolf/cover.hpp"
#include "sg/properties.hpp"
#include "sg/state_graph.hpp"
#include "util/dynbitset.hpp"
#include "util/flat_map.hpp"

namespace sitm {

/// A valid I-partition for inserting a new signal.
struct InsertionPlan {
  Cover f;           ///< the (set) divisor function
  Cover f_reset;     ///< reset condition; empty for combinational divisors
  bool latch = false;  ///< sequential (set/reset latch) divisor
  DynBitset s1;      ///< states where the new signal settles to 1
  DynBitset er_rise; ///< ER(x+) (subset of s1)
  DynBitset er_fall; ///< ER(x-) (subset of ~s1)
  bool initial_value = false;  ///< x's value in the initial state
};

/// Incremental insertion-planning engine: one planner per SG revision.
///
/// Planning one candidate re-derives per-graph state the candidates of a
/// `resolve_csc` round or a mapper iteration all share: the diamond
/// enumeration (the dominant cost — previously recomputed inside every
/// plan), and, for candidates whose seeds propagate to the same S1 block,
/// the grown excitation regions.  The planner owns that shared state:
///
///  * diamonds are enumerated lazily, once, on the first plan that reaches
///    region growth, together with a corner index: for every state, the
///    diamonds (in enumeration order) where it is a middle corner, as
///    compressed sparse rows.  Region growth is one worklist closure over
///    it: a state that joins a region is visited once, for its
///    predecessors, its input successors and its own diamonds, since a
///    diamond's top can only be forced when its second middle corner
///    joins.  The cross-region check walks only the regions' diamonds, so
///    planning never scans the whole diamond list;
///  * a memo keyed by the S1 block itself caches the grown
///    ER(x+)/ER(x-) pair and the derived initial value, or that there are
///    none — shared even between candidates with different seeds (and
///    between combinational and latch divisors) that induce the same
///    bipartition.
///
/// The planner answers only whether a legal insertion exists and, if so,
/// with its plan; nothing in the flow reads why a divisor is rejected.
/// Memoized answers equal a fresh planner's (`tests/perf_equiv_test.cpp`).
/// The closure reaches the least fixpoint of the paper's steps in another
/// order than the step-by-step sweep over every diamond (kept in
/// `tests/support/` as the oracle, `tests/insertion_oracle_test.cpp`), so it
/// gives the same verdict and regions.  The planner holds a reference to
/// the SG — do not mutate or destroy the graph while using it.  A caller
/// planning one candidate may use a throwaway `InsertionPlanner(sg)`.
class InsertionPlanner {
 public:
  explicit InsertionPlanner(const StateGraph& sg);

  /// The I-partition for the combinational divisor `f` (S1 = states where f
  /// evaluates to 1), or nullopt if no legal speed-independence-preserving
  /// insertion exists.
  std::optional<InsertionPlan> plan(const Cover& f);

  /// The I-partition for a sequential (latch) divisor: the new signal
  /// behaves like an SR latch, set when `f_set` holds and reset when
  /// `f_reset` holds; elsewhere it keeps its value.  S1 is obtained by
  /// propagating this latch semantics over the SG; fails when the initial
  /// state is in neither set, set/reset overlap on a reachable state or the
  /// propagated value is ambiguous.
  /// This realizes the paper's "very general sequential decomposition"
  /// (Section 5) — e.g. a 3-input C element decomposes as C(C(a,b), c) via
  /// f_set = a*b, f_reset = a'*b'.
  std::optional<InsertionPlan> plan_latch(const Cover& f_set,
                                          const Cover& f_reset);

  /// State-set latch divisor: the new signal is forced to 1 on
  /// `set_states`, to 0 on `reset_states`, and inherits its value elsewhere.
  /// Unlike the cover-based divisors this can separate states sharing the
  /// same binary code, which is what Complete State Coding resolution needs
  /// (the insertion machinery is shared with decomposition, paper
  /// Section 2.3).  Fails when the sets overlap; an initial state in
  /// neither set gets a provisional value, 0 and then 1.
  std::optional<InsertionPlan> plan_state_latch(const DynBitset& set_states,
                                                const DynBitset& reset_states);

  /// The graph's diamonds, enumerated on first use (with the corner index)
  /// and then shared.
  const std::vector<Diamond>& diamonds();

 private:
  /// Grown regions + initial value for one S1 block; !ok when none exist.
  struct FinishOutcome {
    bool ok = false;
    DynBitset er_rise, er_fall;
    bool initial_value = false;
  };

  /// Compute input borders + region growth for `plan.s1`, memoized.
  std::optional<InsertionPlan> finish(InsertionPlan plan);
  const FinishOutcome& finish_outcome(const DynBitset& s1);
  bool grow_region(const DynBitset& block, DynBitset* er) const;
  /// Indices of the diamonds where `s` is a middle corner (after diamonds()).
  std::span<const std::uint32_t> corner_diamonds(StateId s) const;
  /// The S1 block of the latch forced to 1 on the states of the `set`
  /// words and to 0 on those of the `reset` words; nullopt when its value
  /// is not well-defined.
  std::optional<DynBitset> propagate_latch(const std::uint64_t* set,
                                           const std::uint64_t* reset) const;
  /// Sets in `out`, words of a state set, the states where `f` holds.
  void mark_states(const Cover& f, std::uint64_t* out);
  /// The latch plan for a propagated block `s1` (nullopt passes through).
  std::optional<InsertionPlan> plan_latch_block(const Cover& f_set,
                                                const Cover& f_reset,
                                                std::optional<DynBitset> s1);

  const StateGraph& sg_;
  std::optional<std::vector<Diamond>> diamonds_;
  /// Corner index: state s is a middle corner of the diamonds
  /// corner_diamonds_[corner_begin_[s] .. corner_begin_[s + 1]).
  std::vector<std::uint32_t> corner_begin_, corner_diamonds_;
  /// s1 words -> index into finish_results_.
  FlatMap<std::vector<std::uint64_t>, std::uint32_t, WordVecHash> finish_memo_;
  std::vector<FinishOutcome> finish_results_;
  /// Reused buffer: the finish memo's lookup key (only a miss pays for the
  /// key copy), and a cover latch's set words then reset words.
  std::vector<std::uint64_t> key_scratch_;
  /// Signal v's row: the words of the states where v is 1 (mark_states).
  std::vector<std::uint64_t> signal_rows_;
};

/// Provenance of the inserted graph's states: for every pre-insertion state,
/// the new-graph ids of its x=0 and x=1 copies (kNoState when the copy does
/// not exist or was pruned as unreachable).  Each new state is exactly one
/// old state's copy for exactly one x value.  InsertionPreview answers the
/// same questions without materializing the graph; the copy map is the
/// reference it is tested against.
struct InsertionCopies {
  std::vector<StateId> x0, x1;
};

/// Insert a new internal signal named `name` according to `plan`.
/// The result is verified for consistency by construction; behavioural
/// properties (speed-independence, CSC, SIP-ness) should be re-checked by
/// the caller via `InsertionVerifier`.
StateGraph insert_signal(const StateGraph& sg, const InsertionPlan& plan,
                         const std::string& name,
                         InsertionCopies* copies = nullptr);

/// Lazy view of `insert_signal(sg, plan, ...)`'s result, computed without
/// materializing the successor graph.  The inserted graph's states are
/// exactly the surviving (old state, x value) copies, so one reachability
/// walk over that implicit copy product — copy existence and the x0/x1 arc
/// carry-over rules are pure functions of the plan's region bitsets —
/// answers the questions candidate scoring asks: how many states the pruned
/// graph has, which copies survive, and each surviving copy's enabled-event
/// bitmap.  This replaces the full graph copy + `prune_unreachable` that
/// scoring a candidate used to pay; `resolve_csc` scores every candidate
/// through this view and calls `insert_signal` only for the ones it must
/// verify (normally just the committed winner).  All answers are
/// bit-identical to querying the materialized graph and its
/// `InsertionCopies` (pinned by tests/perf_equiv_test.cpp).
///
/// Holds references to `sg` and `plan`; both must outlive the preview.
class InsertionPreview {
 public:
  InsertionPreview(const StateGraph& sg, const InsertionPlan& plan);

  /// State count of the materialized graph after `prune_unreachable`.
  std::size_t num_states() const { return num_states_; }

  /// Does the x=`value` copy of old state `s` exist and survive pruning?
  /// Exactly `(value ? copies.x1 : copies.x0)[s] != kNoState`.
  bool copy_reachable(StateId s, bool value) const {
    return reached_.test(pair_index(s, value));
  }

  /// Enabled-event bitmap of the surviving copy (s, value), laid out like
  /// `StateGraph::enabled_mask` of the successor graph: old signals keep
  /// their event ids, the new signal's events sit at signal index
  /// `sg.num_signals()`.  Only meaningful for reachable copies.
  std::array<std::uint64_t, 2> enabled_mask(StateId s, bool value) const;

 private:
  static std::size_t pair_index(StateId s, bool value) {
    return 2 * static_cast<std::size_t>(s) + (value ? 1 : 0);
  }

  const StateGraph& sg_;
  const InsertionPlan& plan_;
  DynBitset reached_;  ///< surviving (old state, x value) copies
  std::size_t num_states_ = 0;
};

/// Signals whose enabled-event sets the insertion can change on some state
/// copy: the signals of original arcs dropped at excitation-region states
/// (copy missing on one x side, or an ER(x+)/ER(x-) crossing skipping the
/// pending transition).  A signal persistent in `sg` and outside this set is
/// provably still persistent after `insert_signal(sg, plan, ...)`: every
/// state copy keeps its old enabled set except ER copies, whose only edits
/// are these drops plus the new x events — so a persistency check of the
/// inserted graph only needs to revisit the disturbed signals.
DynBitset disturbed_signals(const StateGraph& sg, const InsertionPlan& plan);

/// Full post-insertion check: the new SG must be deterministic, commutative,
/// output-persistent (including x), optionally satisfy CSC, and every signal
/// persistent in the old SG must remain persistent (the SIP condition).
///
/// Which signals of `before` are persistent is a property of that graph
/// alone, so one resolve_csc / mapper iteration computes the baseline once
/// and every candidate's SIP check reuses it.  The baseline is computed
/// eagerly in the constructor and `verify` touches no mutable state, so one
/// verifier can serve concurrent candidate checks (the mapper verifies
/// inside parallel_for workers).  Holds a reference to `before`.
class InsertionVerifier {
 public:
  explicit InsertionVerifier(const StateGraph& before);

  /// Check `after` against `before`.  Pass `require_csc = false` while
  /// resolving CSC conflicts (the input SG itself violates CSC and
  /// intermediate steps may still).  The SIP re-checks skip
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
