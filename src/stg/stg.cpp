#include "stg/stg.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/flat_map.hpp"
#include "util/text.hpp"

namespace sitm {

int Stg::add_signal(std::string name, SignalKind kind) {
  if (signals_.size() >= 64) throw Error("Stg: more than 64 signals");
  if (find_signal(name) >= 0) throw Error("Stg: duplicate signal '" + name + "'");
  signals_.push_back(Signal{std::move(name), kind});
  return static_cast<int>(signals_.size()) - 1;
}

TransId Stg::add_transition(int signal, bool rising, int instance) {
  if (signal < 0 || signal >= num_signals())
    throw Error("Stg: transition with unknown signal");
  transitions_.push_back(StgTransition{signal, rising, instance});
  pre_.emplace_back();
  post_.emplace_back();
  return static_cast<TransId>(transitions_.size()) - 1;
}

PlaceId Stg::add_place(std::string name) {
  places_.push_back(StgPlace{std::move(name), {}, {}});
  return static_cast<PlaceId>(places_.size()) - 1;
}

void Stg::connect_tp(TransId t, PlaceId p) {
  post_[t].push_back(p);
  places_[p].pre.push_back(t);
  maybe_index_implicit(p);
}

void Stg::connect_pt(PlaceId p, TransId t) {
  pre_[t].push_back(p);
  places_[p].post.push_back(t);
  maybe_index_implicit(p);
}

std::uint64_t Stg::tt_key(TransId from, TransId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

void Stg::maybe_index_implicit(PlaceId p) {
  // Index any unnamed place with exactly one producer and one consumer —
  // regardless of whether it was wired by connect_tt or by hand — so the
  // connect_tt lookup below sees everything the old linear scan saw.
  const StgPlace& pl = places_[p];
  if (!pl.name.empty() || pl.pre.size() != 1 || pl.post.size() != 1) return;
  auto [slot, inserted] = tt_index_.emplace(tt_key(pl.pre[0], pl.post[0]), p);
  if (inserted || *slot == p) return;
  // Two candidates for the same (from, to): keep the earliest still-valid
  // place, matching the old scan's first-match behavior.
  const StgPlace& old = places_[*slot];
  const bool old_valid = old.name.empty() && old.pre.size() == 1 &&
                         old.post.size() == 1 && old.pre[0] == pl.pre[0] &&
                         old.post[0] == pl.post[0];
  if (!old_valid || p < *slot) *slot = p;
}

PlaceId Stg::connect_tt(TransId from, TransId to) {
  // Reuse an existing implicit place with exactly this connectivity.  The
  // index is maintained by connect_tp/connect_pt; a hit is re-validated in
  // case later arcs extended the place beyond the one-in/one-out shape.  A
  // key with no entry has never had a qualifying place, so a miss needs no
  // scan; a stale hit falls back to the scan because another still-valid
  // place may have been displaced from the slot earlier.
  if (PlaceId* hit = tt_index_.find(tt_key(from, to))) {
    const auto& pl = places_[*hit];
    if (pl.name.empty() && pl.pre.size() == 1 && pl.post.size() == 1 &&
        pl.pre[0] == from && pl.post[0] == to)
      return *hit;
    for (PlaceId p = 0; p < static_cast<PlaceId>(places_.size()); ++p) {
      const auto& cand = places_[p];
      if (cand.name.empty() && cand.pre.size() == 1 && cand.post.size() == 1 &&
          cand.pre[0] == from && cand.post[0] == to) {
        *hit = p;
        return p;
      }
    }
  }
  const PlaceId p = add_place();
  connect_tp(from, p);
  connect_pt(p, to);  // indexes p for the next lookup
  return p;
}

int Stg::find_signal(std::string_view name) const {
  for (std::size_t i = 0; i < signals_.size(); ++i)
    if (signals_[i].name == name) return static_cast<int>(i);
  return -1;
}

TransId Stg::find_transition(int signal, bool rising, int instance) const {
  for (TransId t = 0; t < static_cast<TransId>(transitions_.size()); ++t) {
    const auto& tr = transitions_[t];
    if (tr.signal == signal && tr.rising == rising && tr.instance == instance)
      return t;
  }
  return -1;
}

std::string Stg::transition_string(TransId t) const {
  const auto& tr = transitions_[t];
  std::string out = event_name(signals_[tr.signal].name, tr.rising);
  if (tr.instance != 1) out += "/" + std::to_string(tr.instance);
  return out;
}

namespace {

// Firing machinery for the token game.  Nets with at most 64 places (every
// benchmark family and all realistic specifications) keep the whole marking
// in one machine word, so enabledness and firing are single AND/XOR-class
// operations; wider nets fall back to a word-vector marking with sparse
// per-transition masks.

[[noreturn]] void throw_overflow(const Stg& stg, TransId t) {
  throw Error("Stg: net is not 1-safe (place overflow firing " +
              stg.transition_string(t) + ")");
}

/// Per-transition place masks for the one-word fast path.
struct SmallFire {
  using Marking = std::uint64_t;
  using Hash = U64Hash;

  std::vector<std::uint64_t> pre, post;
  /// Transitions whose postset lists a place twice can never fire 1-safely.
  std::vector<char> post_dup;

  explicit SmallFire(const Stg& stg) {
    const auto n = stg.num_transitions();
    pre.assign(n, 0);
    post.assign(n, 0);
    post_dup.assign(n, 0);
    for (TransId t = 0; t < static_cast<TransId>(n); ++t) {
      for (PlaceId p : stg.pre_places(t)) pre[t] |= std::uint64_t{1} << p;
      for (PlaceId p : stg.post_places(t)) {
        const std::uint64_t bit = std::uint64_t{1} << p;
        if (post[t] & bit) post_dup[t] = 1;
        post[t] |= bit;
      }
    }
  }

  static Marking initial_marking(const Stg& stg) {
    Marking init = 0;
    for (PlaceId p : stg.initial_marking()) {
      const std::uint64_t bit = std::uint64_t{1} << p;
      if (init & bit) throw Error("Stg: initial marking not 1-safe");
      init |= bit;
    }
    return init;
  }

  bool enabled(const Marking& m, TransId t) const {
    return pre[t] && (m & pre[t]) == pre[t];
  }

  /// Marking after firing `t`; throws if the result is not 1-safe.
  Marking successor(const Stg& stg, const Marking& m, TransId t) const {
    const std::uint64_t cleared = m & ~pre[t];
    if (post_dup[t] || (cleared & post[t])) throw_overflow(stg, t);
    return cleared | post[t];
  }
};

using WideMarking = std::vector<std::uint64_t>;

/// Sparse word masks for the wide path: only the words a transition touches.
struct WideFire {
  using Marking = WideMarking;
  using Hash = WordVecHash;

  struct WordMask {
    std::uint32_t word;
    std::uint64_t bits;
  };
  std::vector<std::vector<WordMask>> pre, post;
  std::vector<char> post_dup;

  static void add_bit(std::vector<WordMask>& masks, PlaceId p, bool* dup) {
    const std::uint32_t word = static_cast<std::uint32_t>(p) >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (p & 63);
    for (auto& m : masks)
      if (m.word == word) {
        if (dup && (m.bits & bit)) *dup = true;
        m.bits |= bit;
        return;
      }
    masks.push_back(WordMask{word, bit});
  }

  explicit WideFire(const Stg& stg) {
    const auto n = stg.num_transitions();
    pre.resize(n);
    post.resize(n);
    post_dup.assign(n, 0);
    for (TransId t = 0; t < static_cast<TransId>(n); ++t) {
      for (PlaceId p : stg.pre_places(t)) add_bit(pre[t], p, nullptr);
      bool dup = false;
      for (PlaceId p : stg.post_places(t)) add_bit(post[t], p, &dup);
      post_dup[t] = dup;
    }
  }

  static Marking initial_marking(const Stg& stg) {
    Marking init((stg.num_places() + 63) / 64, 0);
    for (PlaceId p : stg.initial_marking()) {
      const std::uint64_t bit = std::uint64_t{1} << (p & 63);
      if (init[static_cast<std::size_t>(p) >> 6] & bit)
        throw Error("Stg: initial marking not 1-safe");
      init[static_cast<std::size_t>(p) >> 6] |= bit;
    }
    return init;
  }

  bool enabled(const Marking& m, TransId t) const {
    for (const auto& wm : pre[t])
      if ((m[wm.word] & wm.bits) != wm.bits) return false;
    return !pre[t].empty();
  }

  Marking successor(const Stg& stg, const Marking& m, TransId t) const {
    Marking next = m;
    for (const auto& wm : pre[t]) next[wm.word] &= ~wm.bits;
    for (const auto& wm : post[t]) {
      if (post_dup[t] || (next[wm.word] & wm.bits)) throw_overflow(stg, t);
      next[wm.word] |= wm.bits;
    }
    return next;
  }
};

/// Tracks inferred initial signal values during the token game.
class InitialValues {
 public:
  explicit InitialValues(const Stg& stg) : stg_(stg), value_(stg.num_signals(), -1) {}

  /// Record the constraint imposed by firing transition `t` in a state whose
  /// fired-signals mask is `mask`; throws on inconsistent labeling.
  void observe(TransId t, StateCode mask) {
    const auto& tr = stg_.transition(t);
    const int rel = static_cast<int>((mask >> tr.signal) & 1);
    const int required_initial = tr.rising ? rel : 1 - rel;
    if (value_[tr.signal] < 0) {
      value_[tr.signal] = required_initial;
    } else if (value_[tr.signal] != required_initial) {
      throw Error("Stg: inconsistent labeling for signal " +
                  stg_.signal(tr.signal).name);
    }
  }

  StateCode code() const {
    StateCode out = 0;
    for (std::size_t i = 0; i < value_.size(); ++i)
      if (value_[i] == 1) out |= StateCode{1} << i;
    return out;
  }

 private:
  const Stg& stg_;
  std::vector<int> value_;
};

struct PendingArc {
  StateId from, to;
  Event event;
};

template <typename Fire>
struct GameResult {
  struct Node {
    typename Fire::Marking marking;
    StateCode mask;  ///< XOR of fired signals relative to the initial state
  };
  std::vector<Node> nodes;
  std::vector<PendingArc> arcs;
  InitialValues initial;
};

/// The token game: depth-first exploration from the initial marking with a
/// flat-hash marking store, recording every reached marking and arc and the
/// initial signal values the fired transitions imply.  Throws on 1-safety
/// violations, inconsistent labeling, markings reached under two signal
/// codes, and state explosion.
template <typename Fire>
GameResult<Fire> token_game(const Stg& stg, const Fire& fire,
                            std::size_t max_states, const RunGuard* guard) {
  GameResult<Fire> result{{}, {}, InitialValues(stg)};
  auto& nodes = result.nodes;
  using Node = typename GameResult<Fire>::Node;

  FlatMap<typename Fire::Marking, StateId, typename Fire::Hash> ids(256);
  typename Fire::Marking init = Fire::initial_marking(stg);
  nodes.push_back(Node{init, 0});
  ids.emplace(std::move(init), 0);
  std::vector<StateId> queue{0};

  const auto n_trans = static_cast<TransId>(stg.num_transitions());
  while (!queue.empty()) {
    const StateId sid = queue.back();
    queue.pop_back();
    const Node node = nodes[sid];  // copy: nodes may reallocate

    for (TransId t = 0; t < n_trans; ++t) {
      if (!fire.enabled(node.marking, t)) continue;

      result.initial.observe(t, node.mask);

      typename Fire::Marking next = fire.successor(stg, node.marking, t);
      const StateCode next_mask =
          node.mask ^ (StateCode{1} << stg.transition(t).signal);

      auto [slot, inserted] =
          ids.emplace(next, static_cast<StateId>(nodes.size()));
      if (inserted) {
        if (nodes.size() >= max_states)
          throw GuardExhausted(GuardStop::kBudget, "stg.to_state_graph",
                               nodes.size(), max_states);
        fault::hit("stg.to_state_graph");
        guard_charge(guard, 1, "stg.to_state_graph");
        nodes.push_back(Node{std::move(next), next_mask});
        queue.push_back(*slot);
      } else if (nodes[*slot].mask != next_mask) {
        throw Error("Stg: marking reached with two different signal codes");
      }
      result.arcs.push_back(PendingArc{sid, *slot, stg.transition(t).event()});
    }
  }
  return result;
}

/// Emit the collected reachability data as a StateGraph.
template <typename Fire>
StateGraph emit_state_graph(const Stg& stg, const GameResult<Fire>& game) {
  const StateCode init_code = game.initial.code();
  StateGraphBuilder builder;
  for (const auto& sig : stg.signals()) builder.add_signal(sig.name, sig.kind);
  for (const auto& node : game.nodes) builder.add_state(init_code ^ node.mask);
  for (const auto& arc : game.arcs) {
    // Self-loops in code space are impossible by construction; duplicate
    // arcs (same from/event) collapse naturally in the SG representation.
    builder.add_arc(arc.from, arc.event, arc.to);
  }
  builder.set_initial(0);
  StateGraph sg = std::move(builder).freeze();
  // Every node was discovered from the initial marking; this records it so
  // later reachable() calls are O(1).
  sg.prune_unreachable();
  return sg;
}

}  // namespace

StateGraph Stg::to_state_graph(std::size_t max_states,
                               const RunGuard* guard) const {
  if (initial_marking_.empty()) throw Error("Stg: empty initial marking");
  if (places_.size() <= 64)
    return emit_state_graph(
        *this, token_game(*this, SmallFire(*this), max_states, guard));
  return emit_state_graph(
      *this, token_game(*this, WideFire(*this), max_states, guard));
}

}  // namespace sitm
