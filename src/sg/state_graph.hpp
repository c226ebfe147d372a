#pragma once
// State Graph (SG): the behavioural model of the paper (Section 2.1).
//
// An SG is a directed graph whose nodes (states) are labeled with signal
// value vectors and whose arcs are labeled with signal transitions.  The
// technology mapping flow requires the SG to be consistent, deterministic,
// commutative and output-persistent, and to satisfy Complete State Coding.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sg/signal.hpp"
#include "util/dynbitset.hpp"

namespace sitm {

/// Index of a state inside a StateGraph.
using StateId = std::int32_t;
inline constexpr StateId kNoState = -1;

/// Labeled arc of a state graph.
struct Arc {
  Event event;
  StateId from = kNoState;
  StateId to = kNoState;
};

/// Explicit state graph over at most 64 signals.
///
/// States are created with `add_state` and connected with `add_arc`; the
/// per-state adjacency (successors/predecessors) is maintained eagerly so
/// the region computations can traverse in both directions.
class StateGraph {
 public:
  // ----- construction -------------------------------------------------

  /// Register a signal; returns its index.  Throws if the name is already
  /// used or more than 64 signals are declared.
  int add_signal(std::string name, SignalKind kind);

  /// Create a state carrying binary code `code`; returns its id.
  StateId add_state(StateCode code);

  /// Connect `from` to `to` with event `ev`.  No consistency check is done
  /// here; use `check_consistency` after construction.
  void add_arc(StateId from, Event ev, StateId to);

  void set_initial(StateId s) {
    initial_ = s;
    all_reachable_ = false;
  }

  // ----- basic queries -------------------------------------------------

  int num_signals() const { return static_cast<int>(signals_.size()); }
  std::size_t num_states() const { return codes_.size(); }
  std::size_t num_arcs() const;
  StateId initial() const { return initial_; }

  const Signal& signal(int i) const { return signals_[i]; }
  const std::vector<Signal>& signals() const { return signals_; }
  /// Index of a signal by name, or -1.
  int find_signal(std::string_view name) const;

  /// Indices of all input / non-input signals.
  std::vector<int> input_signals() const;
  std::vector<int> noninput_signals() const;

  StateCode code(StateId s) const { return codes_[s]; }
  bool value(StateId s, int signal) const {
    return (codes_[s] >> signal) & 1u;
  }

  struct Edge {
    Event event;
    StateId target;
  };
  const std::vector<Edge>& succs(StateId s) const { return succs_[s]; }
  const std::vector<Edge>& preds(StateId s) const { return preds_[s]; }

  /// True if event `e` is enabled (has an outgoing arc) in state `s`.
  /// O(1): answered from a per-state event bitmap maintained by `add_arc`,
  /// not by scanning the adjacency list (this is the innermost query of the
  /// region, CSC and verification loops).
  bool enabled(StateId s, Event e) const {
    const int id = event_id(e);
    return (ev_mask_[s][id >> 6] >> (id & 63)) & 1u;
  }
  /// Raw per-state bitmap behind `enabled`: 2 bits per signal, indexed by
  /// the dense event id `2 * signal + rising` (word `id >> 6`, bit
  /// `id & 63`).  Exposed so conflict scans can mask whole event classes
  /// word-at-a-time instead of re-walking the adjacency list per query.
  const std::array<std::uint64_t, 2>& enabled_mask(StateId s) const {
    return ev_mask_[s];
  }
  /// Event bitmap (same layout as `enabled_mask`) with both polarity bits
  /// set for every non-input signal; `enabled_mask(s) & noninput_event_mask()`
  /// is the state's output-event mask.
  std::array<std::uint64_t, 2> noninput_event_mask() const;

  /// Successor of `s` under event `e`, or kNoState.  (Assumes determinism;
  /// returns the first matching arc.)
  StateId successor(StateId s, Event e) const;
  /// All events enabled in `s`.
  std::vector<Event> enabled_events(StateId s) const;

  /// Render the code of `s` as a 0/1 string in signal order, e.g. "1010".
  std::string code_string(StateId s) const;
  /// Human-readable event name, e.g. "csc0+".
  std::string event_string(Event e) const;

  /// Empty state set sized for this graph.
  DynBitset empty_set() const { return DynBitset(num_states()); }
  /// Set of all states.
  DynBitset full_set() const;
  /// States reachable from the initial state.  O(1) (the full set) when
  /// the graph is known to be fully reachable, else a DFS.
  DynBitset reachable() const;
  /// Whether every state is known reachable: set by `prune_unreachable`,
  /// cleared by `add_state`, `add_arc` and `set_initial`.
  bool all_reachable() const { return all_reachable_; }

  /// Remove states unreachable from the initial state; renumbers states.
  /// Returns the number of removed states.  When `old_to_new` is given it
  /// receives the renumbering (kNoState for removed states), sized to the
  /// pre-prune state count.  Afterwards every state is known reachable.
  std::size_t prune_unreachable(std::vector<StateId>* old_to_new = nullptr);

 private:
  /// Dense id of an event: 2 bits per signal, 128 bits cover 64 signals.
  static int event_id(Event e) { return 2 * e.signal + (e.rising ? 1 : 0); }

  std::vector<Signal> signals_;
  std::vector<StateCode> codes_;
  std::vector<std::vector<Edge>> succs_;
  std::vector<std::vector<Edge>> preds_;
  /// Per-state bitmap of enabled events, indexed by `event_id`.
  std::vector<std::array<std::uint64_t, 2>> ev_mask_;
  StateId initial_ = kNoState;
  bool all_reachable_ = false;
};

}  // namespace sitm
