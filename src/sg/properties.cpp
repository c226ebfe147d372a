#include "sg/properties.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "util/flat_map.hpp"
#include "util/text.hpp"

namespace sitm {

PropertyResult check_consistency(const StateGraph& sg) {
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    for (const auto& e : sg.succs(s)) {
      const bool before = sg.value(s, e.event.signal);
      const bool after = sg.value(e.target, e.event.signal);
      if (before == e.event.rising || after != e.event.rising) {
        return PropertyResult::fail(strfmt(
            "inconsistent arc %s: %s -> %s", sg.event_string(e.event).c_str(),
            sg.code_string(s).c_str(), sg.code_string(e.target).c_str()));
      }
      const StateCode diff = sg.code(s) ^ sg.code(e.target);
      if (diff != (StateCode{1} << e.event.signal)) {
        return PropertyResult::fail(strfmt(
            "arc %s changes signals other than its own: %s -> %s",
            sg.event_string(e.event).c_str(), sg.code_string(s).c_str(),
            sg.code_string(e.target).c_str()));
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_determinism(const StateGraph& sg) {
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto edges = sg.succs(s);
    // One arc per enabled event leaves no two arcs sharing an event.
    const auto& enabled = sg.enabled_mask(s);
    if (edges.size() == static_cast<std::size_t>(std::popcount(enabled[0]) +
                                                 std::popcount(enabled[1])))
      continue;
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

PropertyResult check_commutativity(const StateGraph& sg) {
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto& edges = sg.succs(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        const Event a = edges[i].event, b = edges[j].event;
        if (a == b) continue;
        // After a, is b still enabled?  If both orders can complete they
        // must join in the same state.
        const StateId s_ab = sg.successor(edges[i].target, b);
        const StateId s_ba = sg.successor(edges[j].target, a);
        if (s_ab != kNoState && s_ba != kNoState && s_ab != s_ba) {
          return PropertyResult::fail(strfmt(
              "non-commutative pair (%s,%s) from state %s",
              sg.event_string(a).c_str(), sg.event_string(b).c_str(),
              sg.code_string(s).c_str()));
        }
      }
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_persistency(const StateGraph& sg,
                                 const std::vector<int>& signals) {
  // Both events of every watched signal, in the `enabled_mask` layout.
  std::array<std::uint64_t, 2> watched{0, 0};
  for (const int sig : signals)
    watched[sig >> 5] |= std::uint64_t{3} << ((2 * sig) & 63);

  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto& enabled = sg.enabled_mask(s);
    const std::array<std::uint64_t, 2> live{watched[0] & enabled[0],
                                            watched[1] & enabled[1]};
    // Firing an arc must leave every other live event enabled.
    const bool clean = std::ranges::none_of(sg.succs(s), [&](const auto& ea) {
      const auto& after = sg.enabled_mask(ea.target);
      std::array<std::uint64_t, 2> lost{live[0] & ~after[0],
                                        live[1] & ~after[1]};
      const int id = 2 * ea.event.signal + (ea.event.rising ? 1 : 0);
      lost[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
      return (lost[0] | lost[1]) != 0;
    });
    if (clean) continue;
    // Name the first violating pair in arc order.
    for (const auto& ea : sg.succs(s)) {
      for (const auto& eb : sg.succs(s)) {
        if (eb.event == ea.event) continue;
        const int id = 2 * eb.event.signal + (eb.event.rising ? 1 : 0);
        if (((watched[id >> 6] >> (id & 63)) & 1) == 0) continue;
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

PropertyResult check_output_persistency(const StateGraph& sg) {
  return check_persistency(sg, sg.noninput_signals());
}

PropertyResult check_speed_independence(const StateGraph& sg) {
  if (auto r = check_determinism(sg); !r) return r;
  if (auto r = check_commutativity(sg); !r) return r;
  return check_output_persistency(sg);
}

PropertyResult check_csc(const StateGraph& sg) {
  // Each code is compared with the first state that carried it.
  const std::array<std::uint64_t, 2> noninput = sg.noninput_event_mask();
  auto output_events = [&](StateId s) {
    const auto& enabled = sg.enabled_mask(s);
    return std::array<std::uint64_t, 2>{enabled[0] & noninput[0],
                                        enabled[1] & noninput[1]};
  };
  FlatMap<StateCode, StateId> first(sg.num_states());
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto [slot, inserted] = first.emplace(sg.code(s), s);
    if (!inserted && output_events(*slot) != output_events(s)) {
      return PropertyResult::fail(
          strfmt("CSC conflict between states %d and %d (code %s)",
                 static_cast<int>(*slot), static_cast<int>(s),
                 sg.code_string(s).c_str()));
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_usc(const StateGraph& sg) {
  FlatMap<StateCode, StateId> first(sg.num_states());
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto [slot, inserted] = first.emplace(sg.code(s), s);
    if (!inserted) {
      return PropertyResult::fail(strfmt("states %d and %d share code %s",
                                         static_cast<int>(*slot),
                                         static_cast<int>(s),
                                         sg.code_string(s).c_str()));
    }
  }
  return PropertyResult::pass();
}

PropertyResult check_implementability(const StateGraph& sg) {
  if (auto r = check_consistency(sg); !r) return r;
  if (auto r = check_speed_independence(sg); !r) return r;
  return check_csc(sg);
}

std::vector<Diamond> enumerate_diamonds(const StateGraph& sg) {
  std::vector<Diamond> out;
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto& edges = sg.succs(s);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      for (std::size_t j = i + 1; j < edges.size(); ++j) {
        const Event a = edges[i].event, b = edges[j].event;
        if (a == b) continue;
        const StateId top = sg.successor(edges[i].target, b);
        if (top == kNoState) continue;
        if (sg.successor(edges[j].target, a) != top) continue;
        out.push_back(Diamond{s, edges[i].target, edges[j].target, top, a, b});
      }
    }
  }
  return out;
}

}  // namespace sitm
