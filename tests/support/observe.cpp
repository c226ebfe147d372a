#include "support/observe.hpp"

#include <map>

#include "util/error.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

/// Per-graph weak-transition tables.
struct WeakGraph {
  const StateGraph* sg;
  std::vector<char> visible_signal;        // by signal index
  std::vector<DynBitset> tau_closure;      // per state
  // weak successors per (visible event id, state); event id = 2*vis + pol.
  std::vector<std::vector<DynBitset>> weak;
  std::vector<Event> events;               // visible events by id
};

WeakGraph build(const StateGraph& sg, const std::vector<std::string>& visible) {
  WeakGraph w;
  w.sg = &sg;
  w.visible_signal.assign(static_cast<std::size_t>(sg.num_signals()), 0);
  std::map<std::string, int> index;
  for (std::size_t i = 0; i < visible.size(); ++i) {
    const int sig = sg.find_signal(visible[i]);
    if (sig < 0) throw Error("weakly_bisimilar: missing signal " + visible[i]);
    w.visible_signal[static_cast<std::size_t>(sig)] = 1;
    index[visible[i]] = static_cast<int>(i);
  }

  const auto n = static_cast<StateId>(sg.num_states());
  // tau closure: BFS over hidden-signal arcs.
  w.tau_closure.assign(static_cast<std::size_t>(n), DynBitset(sg.num_states()));
  for (StateId s = 0; s < n; ++s) {
    DynBitset& closure = w.tau_closure[static_cast<std::size_t>(s)];
    std::vector<StateId> stack{s};
    closure.set(static_cast<std::size_t>(s));
    while (!stack.empty()) {
      const StateId u = stack.back();
      stack.pop_back();
      for (const auto& edge : sg.succs(u)) {
        if (w.visible_signal[static_cast<std::size_t>(edge.event.signal)])
          continue;
        if (!closure.test(static_cast<std::size_t>(edge.target))) {
          closure.set(static_cast<std::size_t>(edge.target));
          stack.push_back(edge.target);
        }
      }
    }
  }

  // Visible event universe (ordered by the `visible` list for stable ids).
  w.events.resize(2 * visible.size());
  for (const auto& [name, vis] : index) {
    const int sig = sg.find_signal(name);
    w.events[static_cast<std::size_t>(2 * vis)] = Event{sig, false};
    w.events[static_cast<std::size_t>(2 * vis + 1)] = Event{sig, true};
  }

  // weak[e][s] = tau* e tau* successors.
  w.weak.assign(w.events.size(),
                std::vector<DynBitset>(static_cast<std::size_t>(n),
                                       DynBitset(sg.num_states())));
  for (std::size_t e = 0; e < w.events.size(); ++e) {
    for (StateId s = 0; s < n; ++s) {
      DynBitset& out = w.weak[e][static_cast<std::size_t>(s)];
      w.tau_closure[static_cast<std::size_t>(s)].for_each([&](std::size_t u) {
        const StateId v =
            sg.successor(static_cast<StateId>(u), w.events[e]);
        if (v != kNoState) out |= w.tau_closure[static_cast<std::size_t>(v)];
      });
    }
  }
  return w;
}

}  // namespace

ObserveResult weakly_bisimilar(const StateGraph& a, const StateGraph& b,
                               const std::vector<std::string>& visible) {
  const WeakGraph wa = build(a, visible);
  const WeakGraph wb = build(b, visible);

  const auto na = static_cast<std::size_t>(a.num_states());
  const auto nb = static_cast<std::size_t>(b.num_states());
  // relation[s] = set of b-states currently related to a-state s.
  std::vector<DynBitset> relation(na, DynBitset(nb));
  for (auto& row : relation) row.set_all();

  // One direction of the weak bisimulation conditions; `swapped` mirrors it.
  auto violates = [&](const WeakGraph& wl, const WeakGraph& wr, StateId s,
                      StateId t, const std::vector<DynBitset>& rel,
                      bool swapped) -> bool {
    // Visible strong moves of s must be weakly matched by t.
    for (const auto& edge : wl.sg->succs(s)) {
      const bool vis =
          wl.visible_signal[static_cast<std::size_t>(edge.event.signal)];
      DynBitset candidates(wr.sg->num_states());
      if (vis) {
        // Find the event id via the shared ordering.
        std::size_t eid = 0;
        for (; eid < wl.events.size(); ++eid)
          if (wl.events[eid] == edge.event) break;
        candidates = wr.weak[eid][static_cast<std::size_t>(t)];
      } else {
        candidates = wr.tau_closure[static_cast<std::size_t>(t)];
      }
      bool matched = false;
      candidates.for_each([&](std::size_t t2) {
        if (matched) return;
        const bool related =
            swapped ? rel[t2].test(static_cast<std::size_t>(edge.target))
                    : rel[static_cast<std::size_t>(edge.target)].test(t2);
        if (related) matched = true;
      });
      if (!matched) return true;
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < static_cast<StateId>(na); ++s) {
      DynBitset& pairs = relation[static_cast<std::size_t>(s)];
      pairs.for_each([&](std::size_t t) {
        if (violates(wa, wb, s, static_cast<StateId>(t), relation, false) ||
            violates(wb, wa, static_cast<StateId>(t), s, relation, true)) {
          pairs.reset(t);
          changed = true;
        }
      });
    }
  }

  if (!relation[static_cast<std::size_t>(a.initial())].test(
          static_cast<std::size_t>(b.initial()))) {
    return ObserveResult{
        false, strfmt("initial states not weakly bisimilar over %zu visible "
                      "signals",
                      visible.size())};
  }
  return ObserveResult{};
}

ObserveResult observationally_equivalent(const StateGraph& before,
                                         const StateGraph& after) {
  std::vector<std::string> visible;
  for (const auto& sig : before.signals()) visible.push_back(sig.name);
  return weakly_bisimilar(before, after, visible);
}

}  // namespace sitm
