#pragma once
// Signal Transition Graphs: 1-safe labeled Petri nets whose transitions are
// signal edges (a+/a-).  STGs are the front-end specification language; the
// mapping flow itself works on the State Graph obtained by reachability
// analysis (token game).

#include <string>
#include <vector>

#include "sg/signal.hpp"
#include "sg/state_graph.hpp"
#include "util/flat_map.hpp"
#include "util/run_guard.hpp"

namespace sitm {

/// Index types inside an Stg.
using TransId = int;
using PlaceId = int;

/// A labeled transition: instance `instance` of edge sig+/sig- (instances
/// distinguish multiple occurrences of the same edge, "a+/2" in .g files).
struct StgTransition {
  int signal = -1;
  bool rising = true;
  int instance = 1;
  Event event() const { return Event{signal, rising}; }
};

/// A place; `name` is empty for implicit places created between two
/// transitions by the .g shorthand "t1 t2".
struct StgPlace {
  std::string name;
  std::vector<TransId> pre;   ///< transitions producing into this place
  std::vector<TransId> post;  ///< transitions consuming from this place
};

/// Signal Transition Graph (1-safe labeled Petri net).
class Stg {
 public:
  int add_signal(std::string name, SignalKind kind);
  TransId add_transition(int signal, bool rising, int instance = 1);
  PlaceId add_place(std::string name = {});
  /// Arc transition -> place.
  void connect_tp(TransId t, PlaceId p);
  /// Arc place -> transition.
  void connect_pt(PlaceId p, TransId t);
  /// Implicit place between two transitions (creates it if absent).
  PlaceId connect_tt(TransId from, TransId to);

  void mark_initial(PlaceId p) { initial_marking_.push_back(p); }

  int num_signals() const { return static_cast<int>(signals_.size()); }
  const Signal& signal(int i) const { return signals_[i]; }
  const std::vector<Signal>& signals() const { return signals_; }
  int find_signal(std::string_view name) const;

  std::size_t num_transitions() const { return transitions_.size(); }
  std::size_t num_places() const { return places_.size(); }
  const StgTransition& transition(TransId t) const { return transitions_[t]; }
  const StgPlace& place(PlaceId p) const { return places_[p]; }
  const std::vector<PlaceId>& initial_marking() const {
    return initial_marking_;
  }
  /// Preset/postset places of a transition.
  const std::vector<PlaceId>& pre_places(TransId t) const { return pre_[t]; }
  const std::vector<PlaceId>& post_places(TransId t) const { return post_[t]; }

  /// Find transition by (signal, polarity, instance); -1 if absent.
  TransId find_transition(int signal, bool rising, int instance) const;

  /// "a+" or "a-/2" rendering.
  std::string transition_string(TransId t) const;

  /// Default cap on the number of reachable states explored.
  static constexpr std::size_t kDefaultMaxStates = std::size_t{1} << 22;

  /// Token-game reachability to a State Graph.
  ///
  /// Initial signal values are inferred from the first transition polarity
  /// seen for each signal on any path (a+ first => initial 0), which is
  /// well-defined exactly when the STG has a consistent labeling; violations
  /// throw.  Not-1-safe nets throw sitm::Error; exceeding `max_states`
  /// throws GuardExhausted(kBudget) carrying the state count reached and the
  /// limit, so the flow can report it structurally (failure_kind "budget").
  /// `guard` (optional) is polled once per discovered state: a deadline or
  /// cancellation ends the exploration with the corresponding GuardExhausted.
  StateGraph to_state_graph(std::size_t max_states = kDefaultMaxStates,
                            const RunGuard* guard = nullptr) const;

 private:
  static std::uint64_t tt_key(TransId from, TransId to);
  /// Register `p` in the implicit-place index if it is unnamed with exactly
  /// one producer and one consumer.
  void maybe_index_implicit(PlaceId p);

  std::vector<Signal> signals_;
  std::vector<StgTransition> transitions_;
  std::vector<StgPlace> places_;
  std::vector<std::vector<PlaceId>> pre_, post_;  // per transition
  std::vector<PlaceId> initial_marking_;
  /// Implicit places created by `connect_tt`, keyed by (from, to).
  FlatMap<std::uint64_t, PlaceId> tt_index_;
};

}  // namespace sitm
