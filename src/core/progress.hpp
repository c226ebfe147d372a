#pragma once
// Progress analysis (paper Sections 3.3 / 3.4).
//
// Before paying for a full resynthesis, candidate divisors are scored on
// the ORIGINAL State Graph (no reconstruction), exactly as the paper
// advocates.  The estimates rank candidates so the expensive resynthesis is
// spent on the most promising ones first:
//
//  * Property 3.1 — the target cover c(a*) = f*g + r can be safely rewritten
//    as x*g + r with the new signal x substituted for f: four state-set
//    conditions relating ER(x+)/ER(x-) to ER(a*) and the extended quiescent
//    region QR(a*)'.
//
//  * Property 3.2 — for every other event b* that acquires x as a new
//    trigger, the cover of b* grows by at most one literal when
//    ER(x_trigger) is disjoint from SR(b*) and c(b*) is disjoint from the
//    opposite excitation region of x.  Divisors violating this for some
//    event are deprioritized (they may blow up other covers); counting the
//    new triggers also implements the local-acknowledgement ablation.

#include <vector>

#include "boolf/cover.hpp"
#include "core/insertion.hpp"
#include "core/mc_cover.hpp"
#include "sg/state_graph.hpp"

namespace sitm {

struct ProgressEstimate {
  bool target_ok = false;    ///< Property 3.1 satisfied
  bool others_ok = false;    ///< Property 3.2 satisfied for all other events
  int estimated_delta = 0;   ///< literal-count change estimate (negative=good)
  int new_triggers = 0;      ///< events for which x becomes a new trigger
};

/// The state sets Property 3.1 reads that depend only on the target event
/// a*, not on the candidate: computed once per target and shared by all of
/// its candidates.
struct TargetZones {
  DynBitset er;         ///< ER(a*)
  DynBitset qr_ext;     ///< extended quiescent region QR(a*)'
  DynBitset inside;     ///< ER(a*) u QR(a*)'
  DynBitset reachable;  ///< reachable states of the SG
};

/// The zones of `target`.  `opposite` is the cover of the opposite event of
/// the same signal (the other cover of its SignalSynthesis), whose regions
/// extend the quiescent region.
TargetZones target_zones(const StateGraph& sg, const EventCover& target,
                         const EventCover& opposite);

/// Check Property 3.1 for the decomposition c(a*) = f*g + r of `target`,
/// whose target_zones are `zones`.
bool property_3_1(const StateGraph& sg, const TargetZones& zones,
                  const EventCover& target, const Cover& g, const Cover& r,
                  const InsertionPlan& plan);

/// Check Property 3.2 for event cover `other` against the insertion plan.
/// `rising_trigger` selects which transition of x becomes the trigger.
bool property_3_2(const StateGraph& sg, const EventCover& other,
                  const InsertionPlan& plan, bool rising_trigger);

/// Combined estimate over the full synthesis state.  `syntheses` holds the
/// current covers of every non-input signal; `target` identifies the cover
/// being decomposed, with target_zones `zones`; `g`/`r` are quotient and
/// remainder of the division by plan.f.
ProgressEstimate estimate_progress(const StateGraph& sg,
                                   const std::vector<SignalSynthesis>& syntheses,
                                   const TargetZones& zones,
                                   const EventCover& target, const Cover& g,
                                   const Cover& r, const InsertionPlan& plan);

}  // namespace sitm
