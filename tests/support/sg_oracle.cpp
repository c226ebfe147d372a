#include "support/sg_oracle.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <utility>

#include "util/dynbitset.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

/// A state with the variables forced at it for one signal a
/// (cover_lower_bounds), and its side: 2 * (value of a) + next_a.
struct ForcedState {
  std::uint64_t code = 0;
  std::uint64_t vars = 0;
  unsigned side = 0;
};

/// The disjoint-cube sum of the states whose side is in the `sides` mask:
/// keep the states, in the given greedy order, that are apart from every
/// state kept before, and add up their forced variables.  `kept` is
/// scratch space.
int disjoint_cube_literals(const std::vector<ForcedState>& states,
                           unsigned sides,
                           std::vector<const ForcedState*>& kept) {
  kept.clear();
  int literals = 0;
  for (const ForcedState& s : states) {
    if (((sides >> s.side) & 1) == 0) continue;
    const bool apart = std::ranges::all_of(kept, [&](const ForcedState* k) {
      return ((k->code ^ s.code) & (k->vars | s.vars)) != 0;
    });
    if (!apart) continue;
    kept.push_back(&s);
    literals += std::popcount(s.vars);
  }
  return literals;
}

}  // namespace

PropertyResult scalar_check_determinism(const StateGraph& sg) {
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto edges = sg.succs(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        if (edges[i].event == edges[j].event &&
            edges[i].target != edges[j].target) {
          return PropertyResult::fail(
              strfmt("state %s has two %s-successors", sg.code_string(s).c_str(),
                     sg.event_string(edges[i].event).c_str()));
        }
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult scalar_check_persistency(const StateGraph& sg,
                                        const std::vector<int>& signals) {
  DynBitset watched(64);
  for (int sig : signals) watched.set(static_cast<std::size_t>(sig));

  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    for (const auto& ea : sg.succs(s)) {
      // Firing ea must not disable any other enabled watched event.
      for (const auto& eb : sg.succs(s)) {
        if (eb.event == ea.event) continue;
        if (!watched.test(static_cast<std::size_t>(eb.event.signal))) continue;
        if (!sg.enabled(ea.target, eb.event)) {
          return PropertyResult::fail(strfmt(
              "event %s disabled by %s in state %s",
              sg.event_string(eb.event).c_str(),
              sg.event_string(ea.event).c_str(), sg.code_string(s).c_str()));
        }
      }
    }
  }
  return PropertyResult::pass();
}

std::vector<CoverBounds> sorting_cover_lower_bounds(const StateGraph& sg) {
  using Literals = std::array<std::uint64_t, 2>;  // bit 2*v + polarity
  const auto n = static_cast<StateId>(sg.num_states());
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n));
  for (StateId s = 0; s < n; ++s) {
    std::uint64_t code = sg.code(s);
    const auto& enabled = sg.enabled_mask(s);
    for (int w = 0; w < 2; ++w) {
      for (std::uint64_t bits = enabled[w]; bits != 0; bits &= bits - 1) {
        const int id = 64 * w + std::countr_zero(bits);
        const std::uint64_t sig = std::uint64_t{1} << (id >> 1);
        code = (id & 1) ? (code | sig) : (code & ~sig);
      }
    }
    next[s] = code;
  }

  std::uint64_t noninput = 0;
  for (const int sig : sg.noninput_signals())
    noninput |= std::uint64_t{1} << sig;
  const auto signals = static_cast<std::size_t>(sg.num_signals());
  std::vector<Literals> set(signals), reset(signals), complete(signals);
  // Both ends of every arc that crosses signal a's next-state boundary,
  // with the variable the arc forces there.
  struct ForcedEnd {
    int signal;
    StateId state;
    std::uint64_t var;
  };
  std::vector<ForcedEnd> forced;
  for (StateId s = 0; s < n; ++s) {
    for (const auto& edge : sg.succs(s)) {
      const int v = edge.event.signal;
      const std::uint64_t var = std::uint64_t{1} << v;
      std::uint64_t crossing = (next[s] ^ next[edge.target]) & noninput & ~var;
      for (; crossing != 0; crossing &= crossing - 1) {
        const int a = std::countr_zero(crossing);
        const StateId on = ((next[s] >> a) & 1) ? s : edge.target;
        // Named by v's value at the next=1 end.  The reset cover's
        // on-state is the other end, but flipping every pair's polarity
        // leaves the count of distinct pairs as it is.
        const int lit = 2 * v + (sg.value(on, v) ? 1 : 0);
        const std::uint64_t bit = std::uint64_t{1} << (lit & 63);
        complete[a][lit >> 6] |= bit;
        (sg.value(s, a) ? reset[a] : set[a])[lit >> 6] |= bit;
        forced.push_back(ForcedEnd{a, s, var});
        forced.push_back(ForcedEnd{a, edge.target, var});
      }
    }
  }

  // The union terms.
  const auto count = [](const Literals& l) {
    return std::popcount(l[0]) + std::popcount(l[1]);
  };
  std::vector<CoverBounds> out(signals);
  for (std::size_t a = 0; a < signals; ++a)
    out[a] = CoverBounds{count(set[a]), count(reset[a]), count(complete[a])};

  // The disjoint-cube terms, signal by signal: merge each state's forced
  // variables, order the states for the greedy (most forced variables
  // first, then by id) and raise each bound to min(direct, complement).
  // Sides: bit 2 * (value of a) + next_a.
  constexpr unsigned kStable0 = 1u << 0, kErRise = 1u << 1;
  constexpr unsigned kErFall = 1u << 2, kStable1 = 1u << 3;
  std::ranges::sort(forced, {}, [](const ForcedEnd& f) {
    return std::pair(f.signal, f.state);
  });
  std::vector<ForcedState> states;
  std::vector<const ForcedState*> kept;
  for (auto it = forced.begin(); it != forced.end();) {
    const int a = it->signal;
    states.clear();
    while (it != forced.end() && it->signal == a) {
      const StateId s = it->state;
      ForcedState f;
      f.code = sg.code(s);
      f.side = static_cast<unsigned>(2 * ((f.code >> a) & 1) +
                                     ((next[s] >> a) & 1));
      for (; it != forced.end() && it->signal == a && it->state == s; ++it)
        f.vars |= it->var;
      states.push_back(f);
    }
    std::ranges::stable_sort(states, std::greater{}, [](const ForcedState& f) {
      return std::popcount(f.vars);
    });
    const auto disjoint = [&](unsigned direct, unsigned complement) {
      return std::min(disjoint_cube_literals(states, direct, kept),
                      disjoint_cube_literals(states, complement, kept));
    };
    CoverBounds& b = out[static_cast<std::size_t>(a)];
    b.set = std::max(b.set, disjoint(kErRise, kStable0));
    b.reset = std::max(b.reset, disjoint(kErFall, kStable1));
    b.complete =
        std::max(b.complete, disjoint(kErRise | kStable1, kStable0 | kErFall));
  }
  return out;
}

StateGraphBuilder builder_of(const StateGraph& sg) {
  StateGraphBuilder b;
  for (const auto& sig : sg.signals()) b.add_signal(sig.name, sig.kind);
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    b.add_state(sg.code(s));
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    for (const auto& e : sg.succs(s)) b.add_arc(s, e.event, e.target);
  b.set_initial(sg.initial());
  return b;
}

}  // namespace sitm
