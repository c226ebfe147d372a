#pragma once
// The symbolic oracle for the explicit equivalence check: the ROBDD proof
// of the same per-gate statement netlist/equiv.hpp decides over the
// explicit reachable states,
//
//   reach := OR of the reachable state-code minterms
//   prove  reach ⇒ (gate ≡ spec)   per gate, per network
//
// with the on-space and the explicit off-space of each network encoded
// from state codes, and condition 3 as the same arc scan.  On mismatch it
// picks a satisfying assignment of the violation BDD (`pick_one`) and maps
// it back to a reachable state carrying that code.  It lives in the test
// support library because nothing in the flow calls it; the tests hold
// `check_equivalence` to its verdicts.

#include "netlist/equiv.hpp"
#include "support/bdd.hpp"

namespace sitm {

/// The OR of the minterms of every distinct code of the states in `set`,
/// signal v at BDD variable v.  Charges `guard` per encoded code at the
/// "check.state" site.  Throws Error when `mgr` has fewer variables than
/// `sg` has signals.
BddRef encode_states(BddManager& mgr, const StateGraph& sg,
                     const DynBitset& set, const RunGuard* guard = nullptr);

/// `check_equivalence` by BDD: same verdicts, same failure order, same
/// counts; the counterexample is the first state carrying a picked code.
EquivReport check_equivalence_bdd(const Netlist& netlist,
                                  const RunGuard* guard = nullptr);

}  // namespace sitm
