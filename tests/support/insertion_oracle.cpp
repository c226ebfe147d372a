#include "support/insertion_oracle.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "sg/properties.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

ReferencePlan fail(std::string why) {
  ReferencePlan out;
  out.why = std::move(why);
  return out;
}

/// Grow one excitation region inside `block` from the input border `er`.
/// Returns false (with a reason) when forced outside the block.
bool grow_region(const StateGraph& sg, const DynBitset& block,
                 const std::vector<Diamond>& diamonds, DynBitset* er,
                 std::string* why) {
  bool changed = true;
  while (changed) {
    changed = false;

    // Step 2: in-block predecessors of ER states, to the fixpoint.
    std::vector<StateId> work;
    er->for_each([&](std::size_t s) { work.push_back(static_cast<StateId>(s)); });
    while (!work.empty()) {
      const StateId v = work.back();
      work.pop_back();
      for (const auto& p : sg.preds(v)) {
        const StateId u = p.target;
        if (block.test(u) && !er->test(u)) {
          er->set(u);
          work.push_back(u);
          changed = true;
        }
      }
    }

    // Step 4: input successors of ER states; one leaving the block is
    // marked (the last one names the failure) and fails the growth.
    er->for_each([&](std::size_t s) {
      for (const auto& edge : sg.succs(static_cast<StateId>(s))) {
        if (sg.signal(edge.event.signal).kind != SignalKind::kInput) continue;
        if (er->test(edge.target)) continue;
        if (!block.test(edge.target)) {
          *why = strfmt("input event %s would leave the insertion block",
                        sg.event_string(edge.event).c_str());
          changed = false;
        } else {
          changed = true;
        }
        er->set(edge.target);
      }
    });
    if ((*er - block).any()) return false;

    // Step 3: the top of every diamond with both middle corners in the ER.
    for (const auto& d : diamonds) {
      if (er->test(d.left) && er->test(d.right) && !er->test(d.top)) {
        if (!block.test(d.top)) {
          *why = strfmt("diamond closure forced out of block at state %s",
                        sg.code_string(d.top).c_str());
          return false;
        }
        er->set(d.top);
        changed = true;
      }
    }
  }
  return true;
}

ReferencePlan finish(const StateGraph& sg, DynBitset s1) {
  ReferencePlan out;
  out.er_rise = sg.empty_set();
  out.er_fall = sg.empty_set();
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    for (const auto& edge : sg.succs(s)) {
      if (!s1.test(s) && s1.test(edge.target)) out.er_rise.set(edge.target);
      if (s1.test(s) && !s1.test(edge.target)) out.er_fall.set(edge.target);
    }
  }
  if (out.er_rise.none() && out.er_fall.none())
    return fail("divisor function never changes value");

  const std::vector<Diamond> dias = enumerate_diamonds(sg);
  std::string why;
  if (!grow_region(sg, s1, dias, &out.er_rise, &why))
    return fail("ER(x+): " + why);
  if (!grow_region(sg, ~s1, dias, &out.er_fall, &why))
    return fail("ER(x-): " + why);
  if (!out.er_rise.disjoint(out.er_fall))
    return fail("ER(x+) and ER(x-) overlap");

  for (const auto& dia : dias) {
    const bool mid_rise =
        out.er_rise.test(dia.left) || out.er_rise.test(dia.right);
    const bool mid_fall =
        out.er_fall.test(dia.left) || out.er_fall.test(dia.right);
    if (mid_rise && out.er_fall.test(dia.top))
      return fail("concurrent event cancels pending x+ (diamond into ER(x-))");
    if (mid_fall && out.er_rise.test(dia.top))
      return fail("concurrent event cancels pending x- (diamond into ER(x+))");
  }

  const StateId init = sg.initial();
  out.initial_value = s1.test(init) && !out.er_rise.test(init);
  if (out.er_fall.test(init)) out.initial_value = true;
  out.s1 = std::move(s1);
  out.ok = true;
  return out;
}

/// Forward propagation of a latch value from the initial state: `forced`
/// gives 1, 0 or -1 (inherit) per state.  Nullopt on a contradiction.
template <class Forced>
std::optional<std::vector<signed char>> propagate(const StateGraph& sg,
                                                  signed char init_value,
                                                  Forced&& forced) {
  std::vector<signed char> value(sg.num_states(), -1);
  value[static_cast<std::size_t>(sg.initial())] = init_value;
  std::vector<StateId> queue{sg.initial()};
  while (!queue.empty()) {
    const StateId u = queue.back();
    queue.pop_back();
    for (const auto& edge : sg.succs(u)) {
      const StateId v = edge.target;
      int fv = forced(v);
      if (fv == -1) fv = value[static_cast<std::size_t>(u)];
      if (value[static_cast<std::size_t>(v)] == -1) {
        value[static_cast<std::size_t>(v)] = static_cast<signed char>(fv);
        queue.push_back(v);
      } else if (value[static_cast<std::size_t>(v)] != fv) {
        return std::nullopt;
      }
    }
  }
  return value;
}

DynBitset ones(const StateGraph& sg, const std::vector<signed char>& value) {
  DynBitset s1 = sg.empty_set();
  for (std::size_t s = 0; s < value.size(); ++s)
    if (value[s] == 1) s1.set(s);
  return s1;
}

}  // namespace

ReferencePlan reference_plan(const StateGraph& sg, const Cover& f) {
  DynBitset s1 = sg.empty_set();
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    if (f.eval(sg.code(s))) s1.set(s);
  return finish(sg, std::move(s1));
}

ReferencePlan reference_plan_latch(const StateGraph& sg, const Cover& f_set,
                                   const Cover& f_reset) {
  bool overlap = false;
  auto forced = [&](StateId s) -> int {
    const bool set = f_set.eval(sg.code(s));
    const bool reset = f_reset.eval(sg.code(s));
    if (set && reset) overlap = true;
    return set ? 1 : reset ? 0 : -1;
  };
  const int fv = forced(sg.initial());
  if (overlap) return fail("latch set and reset overlap in initial state");
  if (fv == -1) return fail("latch value undefined in initial state");
  const auto value = propagate(sg, static_cast<signed char>(fv), forced);
  if (overlap) return fail("latch set and reset overlap");
  if (!value) return fail("latch value ambiguous (path-dependent)");
  return finish(sg, ones(sg, *value));
}

ReferencePlan reference_plan_state_latch(const StateGraph& sg,
                                         const DynBitset& set_states,
                                         const DynBitset& reset_states) {
  if (!set_states.disjoint(reset_states))
    return fail("latch set and reset state sets overlap");
  auto forced = [&](StateId s) -> int {
    if (set_states.test(static_cast<std::size_t>(s))) return 1;
    if (reset_states.test(static_cast<std::size_t>(s))) return 0;
    return -1;
  };
  std::optional<std::vector<signed char>> value;
  const int fv = forced(sg.initial());
  if (fv != -1) {
    value = propagate(sg, static_cast<signed char>(fv), forced);
  } else {
    value = propagate(sg, 0, forced);
    if (!value) value = propagate(sg, 1, forced);
  }
  if (!value) return fail("latch value ambiguous (path-dependent)");
  return finish(sg, ones(sg, *value));
}

}  // namespace sitm
