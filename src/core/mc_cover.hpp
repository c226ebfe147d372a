#pragma once
// Monotonous cover synthesis (paper Section 2.2).
//
// For every transition a* of a non-input signal we derive a cover function
// c(a*) satisfying the Monotonous Cover conditions:
//   1. c(a*) evaluates to 1 on every state of every ERj(a*);
//   2. c(a*) evaluates to 0 outside U_j (ERj(a*) u QRj(a*));
//   3. within each QRj(a*) the cover changes at most once (it may fall
//      from 1 to 0 but never rises back).
// Unreachable codes are free don't-cares.  Condition 3 is enforced by a
// repair loop that moves offending quiescent states into the off-set and
// re-minimizes.
//
// A signal is implemented combinationally (complete cover, C element
// degenerates into a wire) when the minimized next-state function is not
// more complex than the worse of the set/reset gates; otherwise the
// standard-C architecture with set/reset networks is used.
//
// Gate complexity is min(lit(cover), lit(complement)) (netlist.hpp,
// gate_complexity), and the complement is minimized only when it could win.
// An arc from an on-state to an off-state changes one signal v, so every
// cover holding the on-state and avoiding the off-state carries v's
// literal, and the complement, with on and off swapped, carries the
// opposite one.  The distinct (signal, polarity) pairs on such arcs thus
// bound the literals of any valid complement from below.  When the cover
// has no more literals than that count, the minimum is already known and
// the complement is not minimized; the results are the same either way.
//
// The complete cover is minimized only when it could be chosen: never under
// kStandardC, and under kAuto not when its lower bound (CoverBounds) already
// exceeds the worse set/reset gate.  Those bounds hold for every valid
// cover, the heuristic minimizer's included: a cover must hold each on-state
// in a cube that avoids every off-state, and nothing else is assumed.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "boolf/cover.hpp"
#include "core/insertion.hpp"
#include "netlist/netlist.hpp"
#include "sg/regions.hpp"
#include "sg/state_graph.hpp"
#include "util/run_guard.hpp"

namespace sitm {

/// Cover of one event (the whole set or reset network of a signal).
struct EventCover {
  Event event;
  std::vector<Region> regions;  ///< ERs/QRs of the event
  Cover cover;                  ///< minimized monotonous cover
  DynBitset on, dc, off;        ///< state sets used for minimization
  /// min(lit(cover), lit(complement)), the complement being `off`
  /// minimized against `on`.  That minimization runs only when the arcs
  /// from `on` to `off` force fewer literals than the cover has, since no
  /// valid complement can have fewer (see the header comment).
  int complexity = 0;
};

/// Full synthesis result for one signal.
struct SignalSynthesis {
  int signal = -1;
  bool combinational = false;
  EventCover set;        ///< a+ cover; the complete cover when combinational
  EventCover reset;      ///< a- cover (empty when combinational)
  /// Minimized next-state function; empty when it was not minimized
  /// because it could not be chosen (see synthesize_signal).
  std::optional<Cover> complete;
  /// Gate measure of `complete`.  When `complete` is empty, a lower bound
  /// of that measure instead: the given CoverBounds::complete, else 0.
  int complete_complexity = 0;
  /// Worst gate complexity of the chosen implementation.
  int complexity = 0;
  /// minimize_onoff calls this synthesis made, repair rounds included.
  int minimizations = 0;
};

/// Implementation architecture policy per signal.
enum class Architecture {
  /// Choose per signal: combinational (complete cover) when it is not more
  /// complex than the worst set/reset gate, standard-C otherwise.
  kAuto,
  /// Always a C element with set/reset networks (Figure 2a).
  kStandardC,
  /// Always the complete cover as one atomic complex gate (Figure 2b/c).
  kComplexGate,
};

struct McOptions {
  /// Extra minimizer refinement passes.
  int minimize_passes = 1;
  Architecture architecture = Architecture::kAuto;
  /// Worker threads for `synthesize_all`.  Per-signal synthesis only reads
  /// the (const) SG, so non-input signals are minimized in parallel and the
  /// results are assembled in serial signal order — the netlist is
  /// bit-identical for every thread count.  1 = serial, 0 = one thread per
  /// hardware core.
  int threads = 1;

  /// Whether `o` synthesizes exactly the same covers: only the minimizer
  /// passes and the architecture shape results, threads only the schedule.
  bool same_results(const McOptions& o) const {
    return minimize_passes == o.minimize_passes &&
           architecture == o.architecture;
  }
};

/// Monotonous cover for one event.  Throws sitm::Error if the SG violates
/// the flow preconditions (e.g. CSC).  `minimizations` (optional) is
/// incremented by the number of minimize_onoff calls made.
EventCover monotonous_cover(const StateGraph& sg, Event e,
                            const McOptions& opts = {},
                            int* minimizations = nullptr);

/// Complete (next-state) cover of a signal plus its complexity, with the
/// same optional minimization counter.
Cover complete_cover(const StateGraph& sg, int sig, int* complexity,
                     const McOptions& opts = {},
                     int* minimizations = nullptr);

/// Lower bounds of one signal's synthesis, read off the state graph before
/// anything is minimized.  Each holds for every valid cover of its
/// function and of the function's complement, so it bounds the gate
/// measure min(lit(cover), lit(complement)) whichever minimizer made them.
struct CoverBounds {
  int set = 0;       ///< <= SignalSynthesis::set.complexity
  int reset = 0;     ///< <= SignalSynthesis::reset.complexity
  int complete = 0;  ///< <= the complete cover's gate measure
};

/// The bounds of every signal of `sg`, indexed by signal (input signals get
/// zeros), from one pass over the arcs.  Precondition: every state of `sg`
/// is reachable, as `prune_unreachable` and `insert_signal` leave it.
///
/// Forced literals.  Let next_a(s) be the next-state value of a in s: 1
/// when a+ is enabled, 0 when a- is, else the value of a.  Take an arc
/// s->t labelled by a transition of v != a with next_a(s) != next_a(t).
/// The codes of s and t differ in v alone, and s, t are reachable, so one
/// lies in the on-set of a's complete function and the other in its
/// off-set.  The cube covering either state in a cover of its side must
/// exclude the other, so it carries the literal of v with its value there:
/// v is forced at both s and t.  F(s) is the set of variables forced at s.
///
/// The union term.  Every cover of a side carries each distinct (v,
/// polarity) pair forced at the side's states, and the other side's pairs
/// are the same with the polarities flipped, so a cover and its complement
/// both hold at least that many literals.
///
/// The disjoint-cube term.  Call two states of one side apart when their
/// codes differ in a variable forced at either of them:
/// (code_i ^ code_j) & (F_i | F_j) != 0.  No cube of a valid cover holds
/// two apart states: it would have no literal on that variable, so it would
/// also hold the code of the forcing arc's other end, which lies on the
/// opposite side.  A set of pairwise apart states thus needs as many
/// distinct cubes, each carrying the forced literals of its state, and the
/// sum of |F| over the set bounds the cover.  A greedy pass (most forced
/// variables first, then by state id) picks the set on each side.  Each
/// bound is max(union, min(direct, complement)), with direct and
/// complement the disjoint-cube sums of the function's two sides.
///
/// The sides.  Group a's states by (value of a, next_a).  The complete
/// function's sides are next_a = 1 and next_a = 0.  An arc of v != a keeps
/// a's value, so every forcing arc joins (0,1) = ER(a+) with (0,0), or
/// (1,0) = ER(a-) with (1,1).  The set cover's on-set is ER(a+), and (0,0)
/// lies outside ER(a+) and outside QR(a+), whose states have a=1: it is in
/// the set cover's initial off-set.  The monotonicity repair only grows
/// that off-set, so (0,0) stays a subset of the final one, the side the
/// complement covers.  Likewise the reset cover's on-set is ER(a-) and
/// (1,1) lies in its final off-set.  So every side is a subset of the
/// states its cover must hold, every forcing neighbour is in the states it
/// must avoid, and the bounds hold for any valid cover.
///
/// After an insertion.  Each bound is a function of its signal's forced
/// states alone: their codes, forced variables and sides, in state id
/// order, and the literals their outgoing arcs force (the union terms).
/// ParentBounds keeps those of one graph and derives the bounds of
/// `insert_signal(sg, plan)` from its InsertionPreview, equal to
/// `cover_lower_bounds` of the built graph.  Call T the states the
/// insertion touches: the excitation-region states, which are split and
/// whose copies may lose arcs or gain x's, and the states whose one copy
/// is pruned.  A state s outside T and outside T's neighbours N(T) keeps one
/// copy (s, v), v its S1 membership, and its arcs map one to one onto arcs
/// to copies (t, v) of states outside T: an arc that crossed the S0/S1
/// boundary would land in an excitation region.  Those copies enable what
/// their states did and never x, so next_a of every copy involved is its
/// state's, with x's bit v on both ends; the same signals cross at the same
/// arcs and force the same variables and literals, x's never.  An arc
/// contributes by its crossing signals alone, so the same holds for a
/// neighbour of T whose arcs into T cross the same signals as in the
/// parent (or crossed none, where the T end is pruned).  So the forced
/// states of the inserted graph are the parent's outside the area (T and
/// its other neighbours), codes extended by x's bit, plus those recomputed
/// at the area's surviving copies from the preview's arcs and masks.  A
/// signal whose recomputed states equal the parent's there (one copy each,
/// same variables, literals and side) has the parent's forced states, in
/// the same order, since `prune_unreachable` keeps the copies in parent id
/// order, and no x among their variables, so x's bit in the codes changes
/// no `apart` test: its bound is the parent's verbatim.  Only the other
/// signals, and x, rerun the union and the disjoint-cube greedy.  The
/// equality is pinned by tests/insertion_oracle_test.cpp and
/// tests/perf_equiv_test.cpp.
std::vector<CoverBounds> cover_lower_bounds(const StateGraph& sg);

/// cover_lower_bounds of one graph with the forced states it was read
/// from, so that the bounds of any insertion into the graph follow without
/// building the inserted graph (see the cover_lower_bounds comment).  Holds
/// a reference to `sg`, which must be fully reachable.  `after` is const:
/// one ParentBounds serves concurrent candidates.
class ParentBounds {
 public:
  explicit ParentBounds(const StateGraph& sg);

  /// cover_lower_bounds(sg).
  const std::vector<CoverBounds>& bounds() const { return bounds_; }

  /// cover_lower_bounds(insert_signal(sg, preview.plan(), ...)), indexed by
  /// the inserted graph's signals (x last), from the preview.
  std::vector<CoverBounds> after(const InsertionPreview& preview) const;

  /// A state with the variables forced at it for one signal a, the
  /// literals its outgoing arcs force, and its side.
  struct Forced {
    std::uint64_t code = 0;
    std::uint64_t vars = 0;                   ///< F(s)
    std::array<std::uint64_t, 2> lits{0, 0};  ///< bit 2*v + polarity
    StateId state = kNoState;
    unsigned side = 0;  ///< 2 * (value of a) + next_a
  };

 private:
  const StateGraph& sg_;
  std::uint64_t noninput_ = 0;       ///< non-input signals, one bit each
  std::vector<std::uint64_t> next_;  ///< next-state code of every state
  /// Forced states grouped by signal, in state id order within a signal:
  /// signal a's are forced_[signal_begin_[a] .. signal_begin_[a + 1]).
  std::vector<Forced> forced_;
  std::vector<std::uint32_t> signal_begin_;
  /// Each state's entries of forced_, in signal order, as compressed
  /// sparse rows: state s's are at_state_[state_begin_[s] ..
  /// state_begin_[s + 1]), with their signals in signal_of_.
  std::vector<std::uint32_t> state_begin_, at_state_;
  std::vector<int> signal_of_;
  std::vector<CoverBounds> bounds_;
};

/// Synthesize one signal (choosing combinational vs standard-C).  The
/// complete cover is not minimized under kStandardC, which never reads it,
/// nor under kAuto when `bound` (the signal's entry of
/// cover_lower_bounds(sg), optional) shows its gate measure exceeds the
/// worse set/reset gate, so that it could not be chosen.  set, reset,
/// combinational and complexity are the same with or without `bound`.
SignalSynthesis synthesize_signal(const StateGraph& sg, int sig,
                                  const McOptions& opts = {},
                                  const CoverBounds* bound = nullptr);

/// Synthesize every non-input signal into a standard-C netlist.  Under
/// kAuto, on a graph known to be fully reachable, the signals get their
/// cover_lower_bounds.  `out_syntheses` (optional) receives the per-signal
/// details.  `guard` (optional) is polled once per signal by every worker;
/// exhaustion stops further signal claims and rethrows GuardExhausted on
/// the calling thread (parallel_for's error contract), at any thread count.
Netlist synthesize_all(const StateGraph& sg, const McOptions& opts = {},
                       std::vector<SignalSynthesis>* out_syntheses = nullptr,
                       const RunGuard* guard = nullptr);

/// The standard-C netlist of `sg` assembled from its per-signal syntheses
/// (in synthesize_all's signal order), without synthesizing anything.
Netlist netlist_of(const StateGraph& sg,
                   const std::vector<SignalSynthesis>& syntheses);

/// Synthesize `sigs` serially in the given order, appending each result to
/// `out`, and stop as soon as `keep_going` rejects the latest one.  Returns
/// true when every signal was synthesized and accepted.  `bounds` are
/// cover_lower_bounds(sg), passed on to synthesize_signal.  Each
/// synthesized signal hits the "synth.signal" fault site and charges
/// `guard` one unit, exactly as in synthesize_all.
bool synthesize_while(
    const StateGraph& sg, const std::vector<int>& sigs, const McOptions& opts,
    const RunGuard* guard, const std::vector<CoverBounds>& bounds,
    std::vector<SignalSynthesis>* out,
    const std::function<bool(const SignalSynthesis&)>& keep_going);

}  // namespace sitm
