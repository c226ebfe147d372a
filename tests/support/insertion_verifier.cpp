#include "support/insertion_verifier.hpp"

namespace sitm {

DynBitset disturbed_signals(const StateGraph& sg, const InsertionPlan& plan) {
  DynBitset out(static_cast<std::size_t>(sg.num_signals()));
  const DynBitset er = plan.er_rise | plan.er_fall;
  er.for_each([&](std::size_t s) {
    for (const auto& edge : sg.succs(static_cast<StateId>(s))) {
      const auto t = static_cast<std::size_t>(edge.target);
      if (!arc_carries(plan, s, t, false) || !arc_carries(plan, s, t, true))
        out.set(static_cast<std::size_t>(edge.event.signal));
    }
  });
  return out;
}

InsertionPlan input_border_plan(const StateGraph& sg, InsertionPlan plan) {
  plan.er_rise = sg.empty_set();
  plan.er_fall = sg.empty_set();
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    for (const auto& edge : sg.succs(s)) {
      const auto t = static_cast<std::size_t>(edge.target);
      if (plan.s1.test(static_cast<std::size_t>(s)) != plan.s1.test(t))
        (plan.s1.test(t) ? plan.er_rise : plan.er_fall).set(t);
    }
  const auto init = static_cast<std::size_t>(sg.initial());
  plan.initial_value = (plan.s1.test(init) && !plan.er_rise.test(init)) ||
                       plan.er_fall.test(init);
  return plan;
}

InsertionVerifier::InsertionVerifier(const StateGraph& before)
    : before_(before),
      persistent_(static_cast<std::size_t>(before.num_signals())) {
  for (int sig = 0; sig < before.num_signals(); ++sig)
    persistent_[static_cast<std::size_t>(sig)] =
        check_persistency(before, {sig}) ? 1 : 0;
}

PropertyResult InsertionVerifier::verify(const StateGraph& after,
                                         bool require_csc,
                                         const DynBitset& disturbed) const {
  if (auto r = check_consistency(after); !r) return r;
  if (auto r = check_speed_independence(after); !r) return r;
  if (require_csc) {
    if (auto r = check_csc(after); !r) return r;
  }

  // SIP: every signal whose events were persistent before must stay
  // persistent (inputs included; outputs are covered by the SI check).  A
  // baseline-persistent signal outside the disturbed set cannot fail — its
  // enabledness is untouched on every surviving copy — so its re-check is
  // skipped.
  std::vector<int> sip;
  for (int sig = 0; sig < before_.num_signals(); ++sig) {
    if (!persistent_[static_cast<std::size_t>(sig)]) continue;
    if (!disturbed.test(static_cast<std::size_t>(sig))) continue;
    sip.push_back(sig);
  }
  // One pass checks them all; a violation is then named by the first
  // signal, in signal order, that breaks on its own.
  if (check_persistency(after, sip)) return PropertyResult::pass();
  for (const int sig : sip)
    if (auto r = check_persistency(after, {sig}); !r)
      return PropertyResult::fail("SIP violated: " + r.why);
  return PropertyResult::pass();
}

}  // namespace sitm
