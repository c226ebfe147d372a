#include "sg/regions.hpp"

namespace sitm {

DynBitset enabled_set(const StateGraph& sg, Event e) {
  DynBitset out(sg.num_states());
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    if (sg.enabled(s, e)) out.set(s);
  return out;
}

std::vector<DynBitset> all_switching_regions(const StateGraph& sg) {
  std::vector<DynBitset> region(2 * static_cast<std::size_t>(sg.num_signals()),
                                sg.empty_set());
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    for (const auto& edge : sg.succs(s))
      region[2 * edge.event.signal + (edge.event.rising ? 1 : 0)].set(
          edge.target);
  return region;
}

namespace {

/// Connected components of `set` using arcs (both directions) whose
/// endpoints both lie in `set`.
std::vector<DynBitset> connected_components(const StateGraph& sg,
                                            const DynBitset& set) {
  std::vector<DynBitset> comps;
  DynBitset seen(sg.num_states());
  set.for_each([&](std::size_t seed) {
    if (seen.test(seed)) return;
    DynBitset comp(sg.num_states());
    std::vector<StateId> stack{static_cast<StateId>(seed)};
    seen.set(seed);
    comp.set(seed);
    while (!stack.empty()) {
      const StateId s = stack.back();
      stack.pop_back();
      auto visit = [&](StateId t) {
        if (set.test(t) && !seen.test(t)) {
          seen.set(t);
          comp.set(t);
          stack.push_back(t);
        }
      };
      for (const auto& e : sg.succs(s)) visit(e.target);
      for (const auto& e : sg.preds(s)) visit(e.target);
    }
    comps.push_back(std::move(comp));
  });
  return comps;
}

/// States where signal `sig` is stable (no transition of `sig` enabled).
DynBitset stable_set(const StateGraph& sg, int sig) {
  DynBitset out(sg.num_states());
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    if (!sg.enabled(s, Event{sig, true}) && !sg.enabled(s, Event{sig, false}))
      out.set(s);
  }
  return out;
}

/// BFS from `start` restricted to states in `allowed`; `start` states are
/// included only if they are in `allowed`.
DynBitset reach_within(const StateGraph& sg, const DynBitset& start,
                       const DynBitset& allowed) {
  DynBitset seen(sg.num_states());
  std::vector<StateId> stack;
  start.for_each([&](std::size_t s) {
    if (allowed.test(s)) {
      seen.set(s);
      stack.push_back(static_cast<StateId>(s));
    }
  });
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const auto& e : sg.succs(s)) {
      if (allowed.test(e.target) && !seen.test(e.target)) {
        seen.set(e.target);
        stack.push_back(e.target);
      }
    }
  }
  return seen;
}

}  // namespace

std::vector<Region> excitation_regions(const StateGraph& sg, Event e) {
  const DynBitset all = enabled_set(sg, e);
  std::vector<Region> regions;
  int index = 0;
  for (auto& comp : connected_components(sg, all)) {
    Region r;
    r.event = e;
    r.index = index++;
    r.er = std::move(comp);
    // Switching region: e-successors of the ER.
    r.sr = sg.empty_set();
    r.er.for_each([&](std::size_t s) {
      const StateId t = sg.successor(static_cast<StateId>(s), e);
      if (t != kNoState) r.sr.set(t);
    });
    regions.push_back(std::move(r));
  }

  // Restricted quiescent regions: states where the signal is stable,
  // reachable from this region's SR, minus those reachable from any other
  // region's SR.  (Stability excludes passing through any ER of the signal,
  // which realizes the "without going through ERj" restriction.)
  const DynBitset stable = stable_set(sg, e.signal);
  std::vector<DynBitset> reach;
  reach.reserve(regions.size());
  for (const auto& r : regions)
    reach.push_back(reach_within(sg, r.sr, stable));
  for (std::size_t j = 0; j < regions.size(); ++j) {
    regions[j].qr = reach[j];
    for (std::size_t k = 0; k < regions.size(); ++k)
      if (k != j) regions[j].qr -= reach[k];
  }
  return regions;
}

DynBitset union_er(const StateGraph& sg, const std::vector<Region>& regions) {
  DynBitset out = sg.empty_set();
  for (const auto& r : regions) out |= r.er;
  return out;
}

DynBitset union_qr(const StateGraph& sg, const std::vector<Region>& regions) {
  DynBitset out = sg.empty_set();
  for (const auto& r : regions) out |= r.qr;
  return out;
}

bool next_value(const StateGraph& sg, StateId s, int sig) {
  if (sg.enabled(s, Event{sig, true})) return true;
  if (sg.enabled(s, Event{sig, false})) return false;
  return sg.value(s, sig);
}

}  // namespace sitm
