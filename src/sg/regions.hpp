#pragma once
// Excitation, switching and quiescent regions (paper Section 2.2).
//
// ERj(a*)  : maximal connected set of states where a* is enabled.
// SRj(a*)  : states entered immediately after firing a* from ERj(a*).
// QRj(a*)  : restricted quiescent region — maximal set of states reachable
//            from ERj(a*) in which `a` is stable and which are not reachable
//            from any other ERk(a*), k != j, without passing through ERj(a*).

#include <vector>

#include "sg/state_graph.hpp"
#include "util/dynbitset.hpp"

namespace sitm {

/// One connected excitation region with its derived sets.
struct Region {
  Event event;
  int index = 0;        ///< j in ERj(a*)
  DynBitset er;         ///< excitation region
  DynBitset sr;         ///< switching region
  DynBitset qr;         ///< restricted quiescent region
};

/// All excitation regions of event `e`, with SR/QR filled in.
std::vector<Region> excitation_regions(const StateGraph& sg, Event e);

/// Set of states where event `e` is enabled (union of its ERs).
DynBitset enabled_set(const StateGraph& sg, Event e);

/// Switching region of every event in one arc pass, indexed by the dense
/// event id 2*signal + (rising ? 1 : 0); an event that never occurs has an
/// empty entry.  This is the seed scan of resolve_csc's latch-candidate
/// enumeration — shared with its benchmarks and equivalence tests so the
/// three can never drift apart.
std::vector<DynBitset> all_switching_regions(const StateGraph& sg);

/// Union of the `er` fields of `regions`.
DynBitset union_er(const StateGraph& sg, const std::vector<Region>& regions);
/// Union of the `qr` fields of `regions`.
DynBitset union_qr(const StateGraph& sg, const std::vector<Region>& regions);

/// Next-state function value of signal `sig` in state `s`:
///   1 if sig+ is enabled or sig is stable at 1; 0 otherwise.
bool next_value(const StateGraph& sg, StateId s, int sig);

}  // namespace sitm
