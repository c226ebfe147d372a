#pragma once
// Reference versions of state-graph passes the library computes
// word-parallel or without sorting: the scalar persistency and determinism
// scans, and the cover bounds that sort every forced arc end.  The
// differential tests hold the library's passes to these, verdict, message
// and every bound included.  They live in the test support library because
// nothing in the flow calls them.

#include <vector>

#include "core/mc_cover.hpp"
#include "sg/properties.hpp"
#include "sg/state_graph.hpp"

namespace sitm {

/// check_determinism by comparing every pair of a state's arcs.
PropertyResult scalar_check_determinism(const StateGraph& sg);

/// check_persistency by testing, for every arc, every other arc of its
/// source state.
PropertyResult scalar_check_persistency(const StateGraph& sg,
                                        const std::vector<int>& signals);

/// cover_lower_bounds that collects both ends of every boundary-crossing
/// arc and sorts them by (signal, state).
std::vector<CoverBounds> sorting_cover_lower_bounds(const StateGraph& sg);

/// A builder holding `sg`'s signals, states, arcs (state by state, in arc
/// order) and initial state, to derive variants of a frozen graph.
StateGraphBuilder builder_of(const StateGraph& sg);

}  // namespace sitm
