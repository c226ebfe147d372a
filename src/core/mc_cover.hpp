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

#include <functional>
#include <vector>

#include "boolf/cover.hpp"
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
  Cover complete;        ///< minimized next-state function
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

/// Synthesize one signal (choosing combinational vs standard-C).
SignalSynthesis synthesize_signal(const StateGraph& sg, int sig,
                                  const McOptions& opts = {});

/// Synthesize every non-input signal into a standard-C netlist.
/// `out_syntheses` (optional) receives the per-signal details.  `guard`
/// (optional) is polled once per signal by every worker; exhaustion stops
/// further signal claims and rethrows GuardExhausted on the calling thread
/// (parallel_for's error contract), at any thread count.
Netlist synthesize_all(const StateGraph& sg, const McOptions& opts = {},
                       std::vector<SignalSynthesis>* out_syntheses = nullptr,
                       const RunGuard* guard = nullptr);

/// The standard-C netlist of `sg` assembled from its per-signal syntheses
/// (in synthesize_all's signal order), without synthesizing anything.
Netlist netlist_of(const StateGraph& sg,
                   const std::vector<SignalSynthesis>& syntheses);

/// Lower bounds of one signal's synthesis, read off the state graph before
/// anything is minimized.  Each counts the distinct literals (signal,
/// polarity) that every cover of the function must contain.
struct CoverBounds {
  int set = 0;       ///< <= SignalSynthesis::set.complexity
  int reset = 0;     ///< <= SignalSynthesis::reset.complexity
  int complete = 0;  ///< <= SignalSynthesis::complete_complexity
};

/// The bounds of every signal of `sg`, indexed by signal (input signals get
/// zeros), in one pass over the arcs.  Precondition: every state of `sg` is
/// reachable, as `prune_unreachable` and `insert_signal` leave it.
///
/// Why they hold.  Let next_a(s) be the next-state value of a in s: 1 when
/// a+ is enabled, 0 when a- is, else the value of a.  Take an arc s->t
/// labelled by a transition of v != a with next_a(s) != next_a(t).  The
/// codes of s and t differ in v alone, and s, t are reachable, so one lies
/// in the on-set of a's complete function and the other in its off-set.
/// The cube covering the on-state must exclude the off-state, so it carries
/// the literal of v with its value at the on-state; the complemented cover
/// likewise carries the opposite literal.  Both covers therefore hold at
/// least as many literals as there are distinct forced (v, polarity)
/// pairs, and complete_complexity, the smaller of the two, is bounded by
/// that count.
///
/// a has the same value at s and t.  If it is 0, the next=1 state is in
/// ER(a+), and the other state is a stable a=0 state: outside ER(a+) and
/// outside QR(a+), whose states have a=1.  It is thus in the set cover's
/// initial off-set, and the monotonicity repair only grows that off-set, so
/// the same literal is forced into the set cover and its complement.  If a
/// is 1, the next=0 state is in ER(a-) and the stable a=1 state is in the
/// reset cover's off-set, which bounds reset.complexity the same way.
std::vector<CoverBounds> cover_lower_bounds(const StateGraph& sg);

/// Synthesize `sigs` serially in the given order, appending each result to
/// `out`, and stop as soon as `keep_going` rejects the latest one.  Returns
/// true when every signal was synthesized and accepted.  Each synthesized
/// signal hits the "synth.signal" fault site and charges `guard` one unit,
/// exactly as in synthesize_all.
bool synthesize_while(
    const StateGraph& sg, const std::vector<int>& sigs, const McOptions& opts,
    const RunGuard* guard, std::vector<SignalSynthesis>* out,
    const std::function<bool(const SignalSynthesis&)>& keep_going);

}  // namespace sitm
