#pragma once
// Insertion planning as the paper's procedure states it, one step at a
// time: grow each excitation region by alternating sweeps of step 2
// (predecessors), step 4 (input successors) and step 3 (a scan of every
// diamond) until nothing changes, then scan every diamond for the
// cross-region hazard.  No memo, no corner index.
//
// The reference the corner-indexed InsertionPlanner (core/insertion) is
// held against: the same verdict, S1, ER(x+), ER(x-), initial value and
// failure message.  It lives in the test support library, not in libsitm,
// because nothing in the flow calls it.

#include <string>

#include "boolf/cover.hpp"
#include "sg/state_graph.hpp"
#include "util/dynbitset.hpp"

namespace sitm {

struct ReferencePlan {
  bool ok = false;
  DynBitset s1, er_rise, er_fall;  ///< s1 is empty when it was not derived
  bool initial_value = false;
  std::string why;                 ///< the failure message when !ok
};

/// InsertionPlanner::plan(f).
ReferencePlan reference_plan(const StateGraph& sg, const Cover& f);

/// InsertionPlanner::plan_latch(f_set, f_reset).
ReferencePlan reference_plan_latch(const StateGraph& sg, const Cover& f_set,
                                   const Cover& f_reset);

/// InsertionPlanner::plan_state_latch(set_states, reset_states).
ReferencePlan reference_plan_state_latch(const StateGraph& sg,
                                         const DynBitset& set_states,
                                         const DynBitset& reset_states);

}  // namespace sitm
