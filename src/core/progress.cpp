#include "core/progress.hpp"

#include <algorithm>

namespace sitm {

TargetZones target_zones(const StateGraph& sg, const EventCover& target,
                         const EventCover& opposite) {
  TargetZones z;
  z.er = union_er(sg, target.regions);
  // Extended quiescent region QR(a*)' (paper Section 3.3): the union of the
  // QRs of the event, extended with the excitation regions of the
  // subsequent transitions of the same signal (entered directly from a QR
  // state) — the states where a falling x may become a trigger of those
  // transitions.
  z.qr_ext = union_qr(sg, target.regions);
  for (const auto& region : opposite.regions) {
    bool entered_from_qr = false;
    region.er.for_each([&](std::size_t s) {
      if (entered_from_qr) return;
      for (const auto& p : sg.preds(static_cast<StateId>(s)))
        if (z.qr_ext.test(p.target)) {
          entered_from_qr = true;
          return;
        }
    });
    if (entered_from_qr) z.qr_ext |= region.er;
  }
  z.inside = z.er | z.qr_ext;
  z.reachable = sg.reachable();
  return z;
}

bool property_3_1(const StateGraph& sg, const TargetZones& zones,
                  const EventCover& target, const Cover& g, const Cover& r,
                  const InsertionPlan& plan) {
  const DynBitset& er = zones.er;
  const DynBitset& qr_ext = zones.qr_ext;
  const DynBitset& inside = zones.inside;

  auto fg_only = [&](StateId s) {
    const StateCode code = sg.code(s);
    return plan.f.eval(code) && g.eval(code) && !r.eval(code);
  };

  // Condition 1: states of ER(a*) covered only by f*g must have x settled
  // at 1 already — a pending x+ would leave them uncovered by x*g + r.
  bool ok = true;
  er.for_each([&](std::size_t s) {
    if (!ok) return;
    const auto id = static_cast<StateId>(s);
    if (fg_only(id) && plan.er_rise.test(s)) ok = false;
  });
  if (!ok) return false;

  // Condition 2: outside ER(a*) u QR(a*)' the cube x*g must stay 0 — no
  // state there may carry a pending x- while g evaluates to 1.
  zones.reachable.for_each([&](std::size_t s) {
    if (!ok) return;
    if (inside.test(s)) return;
    if (plan.er_fall.test(s) && g.eval(sg.code(static_cast<StateId>(s))))
      ok = false;
  });
  if (!ok) return false;

  // Condition 3 (monotonicity of x*g inside QR'):
  //  (a) quiescent states covered only by f*g must not hold a pending x+;
  qr_ext.for_each([&](std::size_t s) {
    if (!ok) return;
    if (fg_only(static_cast<StateId>(s)) && plan.er_rise.test(s)) ok = false;
  });
  if (!ok) return false;

  //  (b) when x falls inside QR' while g holds, the cover must still have
  //      been 1 in every predecessor inside ER u QR' (the fall of x*g is
  //      then the single monotonous change).
  qr_ext.for_each([&](std::size_t s) {
    if (!ok) return;
    const auto id = static_cast<StateId>(s);
    if (!plan.er_fall.test(s) || !g.eval(sg.code(id))) return;
    for (const auto& p : sg.preds(id)) {
      if (!inside.test(p.target)) continue;
      if (!target.cover.eval(sg.code(p.target))) {
        ok = false;
        return;
      }
    }
  });
  return ok;
}

bool property_3_2(const StateGraph& sg, const EventCover& other,
                  const InsertionPlan& plan, bool rising_trigger) {
  const DynBitset& trigger_er = rising_trigger ? plan.er_rise : plan.er_fall;
  const DynBitset& opposite_er = rising_trigger ? plan.er_fall : plan.er_rise;

  // Condition 2: ER(x_trigger) disjoint from SR(b*).
  for (const auto& region : other.regions)
    if (!trigger_er.disjoint(region.sr)) return false;

  // Condition 3: c(b*) evaluates to 0 on the opposite excitation region.
  bool ok = true;
  opposite_er.for_each([&](std::size_t s) {
    if (ok && other.cover.eval(sg.code(static_cast<StateId>(s)))) ok = false;
  });
  return ok;
}

namespace {

/// Does transition `side` of x become a new trigger for `other` under the
/// plan?  True iff some state of ER(x_side) has `other` enabled with a
/// successor outside ER(x_side): the pre-copy then loses the arc and the
/// event is re-enabled only by x firing.
bool becomes_trigger(const StateGraph& sg, const EventCover& other,
                     const DynBitset& er_side) {
  bool trigger = false;
  for (const auto& region : other.regions) {
    region.er.for_each([&](std::size_t s) {
      if (trigger || !er_side.test(s)) return;
      const StateId t = sg.successor(static_cast<StateId>(s), other.event);
      if (t != kNoState && !er_side.test(t)) trigger = true;
    });
    if (trigger) break;
  }
  return trigger;
}

}  // namespace

ProgressEstimate estimate_progress(
    const StateGraph& sg, const std::vector<SignalSynthesis>& syntheses,
    const TargetZones& zones, const EventCover& target, const Cover& g,
    const Cover& r, const InsertionPlan& plan) {
  ProgressEstimate out;
  out.target_ok = property_3_1(sg, zones, target, g, r, plan);

  // Expected gain on the target: c = f*g + r becomes x*g + r.
  const int before = target.cover.num_literals();
  const int after = g.num_literals() + static_cast<int>(g.size()) +
                    r.num_literals();
  out.estimated_delta = after - before;

  out.others_ok = true;
  for (const auto& synth : syntheses) {
    const EventCover* covers[2] = {&synth.set, &synth.reset};
    for (const EventCover* other : covers) {
      if (synth.combinational && other == &synth.reset) continue;
      if (other->event == target.event) continue;
      for (bool rising : {true, false}) {
        const DynBitset& er_side = rising ? plan.er_rise : plan.er_fall;
        if (!becomes_trigger(sg, *other, er_side)) continue;
        ++out.new_triggers;
        if (property_3_2(sg, *other, plan, rising)) {
          out.estimated_delta += 1;  // one extra literal on that cover
        } else {
          out.others_ok = false;
        }
      }
    }
  }
  return out;
}

}  // namespace sitm
