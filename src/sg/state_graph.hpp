#pragma once
// State Graph (SG): the behavioural model of the paper (Section 2.1).
//
// An SG is a directed graph whose nodes (states) are labeled with signal
// value vectors and whose arcs are labeled with signal transitions.  The
// technology mapping flow requires the SG to be consistent, deterministic,
// commutative and output-persistent, and to satisfy Complete State Coding.

#include <array>
#include <cstdint>
#include <span>
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

class StateGraph;

/// Collects the signals, states and arcs of a state graph, then freezes them
/// into a StateGraph.  Only signal names and arc endpoints are checked here;
/// run the property checks on the frozen graph.
class StateGraphBuilder {
 public:
  /// Register a signal; returns its index.  Throws if the name is already
  /// used or more than 64 signals are declared.
  int add_signal(std::string name, SignalKind kind);

  /// Create a state carrying binary code `code`; returns its id.
  StateId add_state(StateCode code);

  /// Connect `from` to `to` with event `ev`.  No consistency check is done
  /// here; use `check_consistency` on the frozen graph.
  void add_arc(StateId from, Event ev, StateId to);

  void set_initial(StateId s) { initial_ = s; }

  /// Room for `states` states and `arcs` arcs without regrowing.
  void reserve(std::size_t states, std::size_t arcs) {
    codes_.reserve(states);
    arcs_.reserve(arcs);
  }

  int num_signals() const { return static_cast<int>(signals_.size()); }
  const std::vector<Signal>& signals() const { return signals_; }

  /// The graph as built, consuming the builder.  Each state's successors
  /// (and predecessors) keep the order in which their arcs were added.
  StateGraph freeze() &&;

 private:
  std::vector<Signal> signals_;
  std::vector<StateCode> codes_;
  std::vector<Arc> arcs_;
  StateId initial_ = kNoState;
};

/// Explicit state graph over at most 64 signals, frozen: a
/// StateGraphBuilder creates it, and only `prune_unreachable` changes it.
///
/// Adjacency is flat (compressed sparse rows): one edge array holds every
/// state's successors, then every state's predecessors, each state's slice
/// found through an offset array.  A graph is a handful of allocations
/// whatever its size, `succs`/`preds` are contiguous spans, and no const
/// query writes anything, so one graph can be read from many threads.
class StateGraph {
 public:
  // ----- basic queries -------------------------------------------------

  int num_signals() const { return static_cast<int>(signals_.size()); }
  std::size_t num_states() const { return codes_.size(); }
  std::size_t num_arcs() const { return edges_.size() / 2; }
  StateId initial() const { return initial_; }

  const Signal& signal(int i) const { return signals_[i]; }
  const std::vector<Signal>& signals() const { return signals_; }
  /// Index of a signal by name, or -1.
  int find_signal(std::string_view name) const {
    return sitm::find_signal(signals_, name);
  }

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
  /// Outgoing arcs of `s`, in the order the builder added them.
  std::span<const Edge> succs(StateId s) const {
    return {edges_.data() + offsets_[s], edges_.data() + offsets_[s + 1]};
  }
  /// Incoming arcs of `s`; `target` is the arc's source state.
  std::span<const Edge> preds(StateId s) const {
    const std::size_t p = num_states() + 1 + static_cast<std::size_t>(s);
    return {edges_.data() + offsets_[p], edges_.data() + offsets_[p + 1]};
  }

  /// True if event `e` is enabled (has an outgoing arc) in state `s`.
  /// O(1): answered from a per-state event bitmap, not by scanning the
  /// adjacency list (this is the innermost query of the region, CSC and
  /// verification loops).
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
  /// Whether every state is known reachable: set by `prune_unreachable`;
  /// a freshly frozen graph does not know.
  bool all_reachable() const { return all_reachable_; }

  /// Remove states unreachable from the initial state; renumbers states,
  /// keeping their order and each state's arc order.  Returns the number of
  /// removed states.  When `old_to_new` is given it receives the
  /// renumbering (kNoState for removed states), sized to the pre-prune
  /// state count.  Afterwards every state is known reachable.
  std::size_t prune_unreachable(std::vector<StateId>* old_to_new = nullptr);

 private:
  friend class StateGraphBuilder;

  /// Dense id of an event: 2 bits per signal, 128 bits cover 64 signals.
  static int event_id(Event e) { return 2 * e.signal + (e.rising ? 1 : 0); }

  /// Lay out the adjacency and event bitmaps of `arcs` over the current
  /// states: a stable counting sort by source, then by target, so both
  /// keep the order of `arcs` within a state.
  void freeze_arcs(std::span<const Arc> arcs);

  std::vector<Signal> signals_;
  std::vector<StateCode> codes_;
  /// Successor slice of state s: [offsets_[s], offsets_[s + 1]); its
  /// predecessor slice: [offsets_[n + 1 + s], offsets_[n + 2 + s]).
  std::vector<std::uint32_t> offsets_{0, 0};
  /// Successor edges of every state, then predecessor edges.
  std::vector<Edge> edges_;
  /// Per-state bitmap of enabled events, indexed by `event_id`.
  std::vector<std::array<std::uint64_t, 2>> ev_mask_;
  StateId initial_ = kNoState;
  bool all_reachable_ = false;
};

}  // namespace sitm
