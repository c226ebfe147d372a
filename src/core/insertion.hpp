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

#include <array>
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

/// The copy rule, the one statement of which state copies and arcs an
/// insertion makes (insert_signal, InsertionPreview and the preview checks
/// all read it).  The x=`x` copy of state `s` exists when `s` lies in the
/// block x settles to (S1 for x=1), or in the excitation region that leaves
/// it: ER(x+) lies in S1 and ER(x-) outside it, so ER states are split into
/// both copies and every other state keeps one.
inline bool copy_exists(const InsertionPlan& plan, std::size_t s, bool x) {
  return plan.s1.test(s) == x || (x ? plan.er_fall : plan.er_rise).test(s);
}

/// Does the original arc u -> v carry from the x=`x` copy of u, which must
/// exist, to the x=`x` copy of v?  That copy must exist, and a crossing
/// between the two excitation regions must not skip the pending x
/// transition: on an ER(x+) -> ER(x-) arc only the x=1 copies connect, and
/// on an ER(x-) -> ER(x+) arc only the x=0 copies.
inline bool arc_carries(const InsertionPlan& plan, std::size_t u,
                        std::size_t v, bool x) {
  if (!copy_exists(plan, v, x)) return false;
  if (!x) return !(plan.er_rise.test(u) && plan.er_fall.test(v));
  return !(plan.er_fall.test(u) && plan.er_rise.test(v));
}

/// Insert a new internal signal named `name` according to `plan`.
/// The result is consistent by construction; whether it keeps the
/// behavioural properties (speed independence, CSC, SIP) is answered
/// before building it, from its InsertionPreview, by `PreviewVerifier`.
StateGraph insert_signal(const StateGraph& sg, const InsertionPlan& plan,
                         const std::string& name,
                         InsertionCopies* copies = nullptr);

/// Lazy view of `insert_signal(sg, plan, ...)`'s result, computed without
/// materializing the successor graph.  The inserted graph's states are
/// exactly the surviving (old state, x value) copies, so one reachability
/// walk over that implicit copy product — copy existence and the x0/x1 arc
/// carry-over rules are pure functions of the plan's region bitsets —
/// answers what a candidate is judged on: how many states the pruned graph
/// has, which copies survive, each surviving copy's enabled-event bitmap
/// and its arcs.  `resolve_csc` scores its candidates from the preview,
/// and both `resolve_csc` and `technology_map` verify them on it
/// (`PreviewVerifier`); the mapper also bounds its candidates' covers from
/// it (`ParentBounds::after`).  Each builds a graph only for a candidate it
/// goes on with: `resolve_csc` its committed winner, the mapper the
/// candidates its best-first search starts resynthesizing.  All answers
/// are bit-identical to querying the materialized graph and its
/// `InsertionCopies` (pinned by tests/perf_equiv_test.cpp).
///
/// Holds references to `sg` and `plan`; both must outlive the preview.
class InsertionPreview {
 public:
  InsertionPreview(const StateGraph& sg, const InsertionPlan& plan);

  const InsertionPlan& plan() const { return plan_; }

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
  /// `sg.num_signals()`.  Recorded by the reachability walk, so O(1).  Only
  /// meaningful for reachable copies.
  const std::array<std::uint64_t, 2>& enabled_mask(StateId s,
                                                   bool value) const {
    return masks_[pair_index(s, value)];
  }

  /// Calls `f(event, t, t_value)` for every arc of the materialized graph
  /// that leaves the surviving copy (s, value): the pending x transition
  /// first, then the carried original arcs in `sg.succs(s)` order.  The new
  /// signal's events carry signal index `sg.num_signals()`.
  template <class F>
  void for_each_succ(StateId s, bool value, F&& f) const {
    const auto i = static_cast<std::size_t>(s);
    const int x = sg_.num_signals();
    if (!value && plan_.er_rise.test(i)) f(Event{x, true}, s, true);
    if (value && plan_.er_fall.test(i)) f(Event{x, false}, s, false);
    for (const auto& edge : sg_.succs(s))
      if (arc_carries(plan_, i, static_cast<std::size_t>(edge.target), value))
        f(edge.event, edge.target, value);
  }

  /// Calls `f(event, u, u_value)` for every arc of the materialized graph
  /// that enters the surviving copy (s, value) from a surviving copy
  /// (u, u_value): the x transition first, then the carried original arcs
  /// in `sg.preds(s)` order.
  template <class F>
  void for_each_pred(StateId s, bool value, F&& f) const {
    const auto i = static_cast<std::size_t>(s);
    const int x = sg_.num_signals();
    if (value && plan_.er_rise.test(i) && copy_reachable(s, false))
      f(Event{x, true}, s, false);
    if (!value && plan_.er_fall.test(i) && copy_reachable(s, true))
      f(Event{x, false}, s, true);
    for (const auto& edge : sg_.preds(s))
      if (copy_reachable(edge.target, value) &&
          arc_carries(plan_, static_cast<std::size_t>(edge.target), i, value))
        f(edge.event, edge.target, value);
  }

 private:
  static std::size_t pair_index(StateId s, bool value) {
    return 2 * static_cast<std::size_t>(s) + (value ? 1 : 0);
  }

  const StateGraph& sg_;
  const InsertionPlan& plan_;
  DynBitset reached_;  ///< surviving (old state, x value) copies
  /// Enabled-event bitmaps, by pair index (reached copies only).
  std::vector<std::array<std::uint64_t, 2>> masks_;
  std::size_t num_states_ = 0;
};

/// The post-insertion check, answered on the copy product: the verdict of
/// building `insert_signal(before, plan, ...)` and requiring it to be
/// consistent, deterministic, commutative and output-persistent (x
/// included), to satisfy CSC when asked, and to keep persistent every
/// signal persistent in `before` (the SIP condition).
///
/// Preconditions: `before` is consistent, deterministic, commutative and
/// output-persistent, as the flow's graphs are (the properties stage and
/// every earlier verified insertion make them so), and the plan's regions
/// hold the input borders of its S1 (IB(f+) ⊆ ER(x+) ⊆ S1 and
/// IB(f-) ⊆ ER(x-) ⊆ ~S1), as every InsertionPlanner plan's do.  Under
/// them the checks are local:
///
///  * Consistency and determinism hold by construction.  A copy keeps its
///    state's code with x's bit added, every carried arc joins two copies
///    with x's bit equal, and an x arc joins the two copies of one state;
///    a copy's carried arcs are a subset of its state's arcs, plus at most
///    one x arc.
///  * Commutativity holds by construction.  Two original events a, b from
///    (s, v) stay on side v, so both orders, when they exist, end at
///    (sab, v) = (sba, v).  An original event b and the x transition from
///    (s, 0) both reach (sb, 1): via (s, 1) -b-> and via (sb, 0) -x+->.
///    Likewise for x-.
///  * Persistency can only break on an arc into or out of an
///    excitation-region copy.  A copy of a state outside ER(x+) ∪ ER(x-)
///    has its state's enabled set (every arc that crosses the S0/S1
///    boundary lands in an excitation region, which has both copies, so
///    all its arcs carry) and no x event.  If p = (s, v) and its successor
///    q = (t, v) are both such copies, an event disabled from p to q is
///    disabled from s to t in `before`: a non-input signal there would
///    break `before`'s output persistency, and a signal persistent in
///    `before` is by definition never disabled.  Inputs not persistent in
///    `before` are not watched, and x's own events are enabled only in
///    region copies.
///  * CSC can only break in the code class of an excitation-region state
///    or in a class that already conflicts in `before`.  The copies of a
///    class split by x's value into two classes of the inserted graph; a
///    copy outside the regions keeps its state's output events, so a class
///    with no region state and no conflict in `before` stays clean.
///
/// The persistency baseline of `before` (one pass for every signal) and,
/// when CSC is required, its code classes are computed once, in the
/// constructor; `verify` is const, so one verifier serves every candidate
/// of an iteration, also from concurrent workers.  The built-graph checks
/// are the oracle (tests/support/insertion_verifier.hpp); the verdicts are
/// compared in tests/insertion_oracle_test.cpp and
/// tests/perf_equiv_test.cpp.  Holds a reference to `before`.
class PreviewVerifier {
 public:
  PreviewVerifier(const StateGraph& before, bool require_csc);

  /// The verdict for `preview` (a preview of an insertion into `before`).
  /// Pass `require_csc = false` while resolving CSC conflicts (the input
  /// SG itself violates CSC and intermediate steps may still).
  PropertyResult verify(const InsertionPreview& preview) const;

 private:
  bool persistent_at(const InsertionPreview& preview, StateId s,
                     bool value) const;
  bool class_coded(const InsertionPreview& preview, std::uint32_t cls) const;

  const StateGraph& before_;
  bool require_csc_;
  /// Events the inserted graph must keep persistent, in the enabled_mask
  /// layout of the inserted graph: the non-input signals' (x's included)
  /// and those of every signal persistent in `before`.
  std::array<std::uint64_t, 2> watched_{0, 0};
  /// The inserted graph's non-input events (x's included).
  std::array<std::uint64_t, 2> noninput_{0, 0};
  /// Code classes of `before` (only when CSC is required): each state's
  /// class, and each class's states as compressed sparse rows.
  std::vector<std::uint32_t> class_of_, class_begin_, class_states_;
  /// Classes whose states already disagree on their output events.
  std::vector<std::uint32_t> conflicting_;
};

}  // namespace sitm
