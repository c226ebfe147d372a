#pragma once
// BDD-based formal equivalence of synthesized netlists against the SG.
//
// The paper's correctness claim for the standard-C architecture is local
// and per-gate: over the *reachable* states, each combinational gate equals
// the signal's next-state function, and each set/reset network is 1 on the
// corresponding excitation region, 0 on the must-off space, and free of
// 0->1 rises inside its ER∪QR zones (the monotonous cover conditions of
// Section 3).  `check_equivalence` proves exactly that statement with the
// ROBDD package:
//
//   reach := OR of the reachable state-code minterms
//   prove  reach ⇒ (gate ≡ spec)   per gate, per network
//
// The reachable set is built from the explicit SG codes over the signal
// variables the gates speak, inserted state signals included; its encoder
// (`encode_states` below, sifted-order covers in equiv.cpp) is the library's
// only SG-code -> BDD encoding.  Don't-cares
// are handled by restriction to `reach`; the off-space of a sequential
// network is built from the explicit off-state codes (NOT as a
// complement), mirroring `minimize_onoff`'s treatment of a code shared by a
// quiescent and an off state as hard-off.
//
// On mismatch the checker extracts a satisfying assignment of the
// violation BDD (`pick_one`) and maps it back to a concrete reachable
// StateId — the counterexample a human can replay on the SG.
//
// `CheckOptions::reorder` routes every BDD through the sifted variable
// order of `src/bdd/reorder.*` (the reachable set is sifted once, covers
// and minterms are then encoded directly in the permuted order); verdicts
// are order-independent by construction and pinned so by tests.

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"
#include "netlist/nlint.hpp"
#include "util/json.hpp"
#include "util/run_guard.hpp"

namespace sitm {

struct CheckOptions {
  NlintOptions nlint;
  /// Sift the BDD variable order on the reachable-set BDD before encoding
  /// the per-gate proofs (src/bdd/reorder.hpp).
  bool reorder = false;
};

/// Verdict for one SOP network (a combinational gate, or one side of a gC).
struct GateVerdict {
  int signal = -1;
  std::string name;            ///< signal name
  std::string network;         ///< "complete" | "set" | "reset"
  bool proven = false;
  std::string why;             ///< empty when proven
  /// Counterexample on mismatch: the state code and a reachable state
  /// carrying it (kNoState when the violation is not state-addressable,
  /// e.g. a structurally broken impl).
  std::uint64_t counterexample_code = 0;
  StateId counterexample_state = kNoState;
};

struct EquivReport {
  bool ok = true;
  int gates_checked = 0;   ///< SOP networks examined
  int gates_proven = 0;
  std::vector<GateVerdict> failures;
  std::size_t reach_states = 0;    ///< distinct reachable state codes
  std::size_t reach_bdd_size = 0;  ///< DAG size of the reachable-set BDD
  std::size_t bdd_nodes = 0;       ///< manager node count after the proof
  bool reordered = false;
  std::size_t reorder_size_before = 0;
  std::size_t reorder_size_after = 0;

  /// Message of the first failed verdict, prefixed "equiv: "; empty if ok.
  std::string first_failure() const;

  Json to_json() const;
};

/// The SG-code -> BDD encoding the proof runs on: the OR of the minterms of
/// every distinct code of the states in `set`, signal v at BDD variable v.
/// Charges `guard` per encoded code at the "check.state" site.  Throws
/// Error when `mgr` has fewer variables than `sg` has signals.
BddRef encode_states(BddManager& mgr, const StateGraph& sg,
                     const DynBitset& set, const RunGuard* guard = nullptr);

/// Prove every gate of `netlist` equivalent to its excitation/next-state
/// specification over the reachable states.  Charges `guard` (nullptr =
/// unbounded) per encoded state and per gate at the "check.state" /
/// "check.gate" sites.
EquivReport check_equivalence(const Netlist& netlist,
                              const CheckOptions& opts = {},
                              const RunGuard* guard = nullptr);

// ----- mutation harness ---------------------------------------------------
// Deterministic netlist corruption for the mutation tests and the
// `sitm check --mutate` self-test: each kind enumerates its applicable
// sites in a fixed order and `which` selects one.

enum class NetlistMutation : int {
  kFlipLiteral = 0,  ///< flip the polarity of one SOP literal
  kDropCube,         ///< erase one cube from a multi-cube SOP
  kSwapSetReset,     ///< swap the set and reset networks of one gC
};

const char* netlist_mutation_name(NetlistMutation m);
/// Parse "flip-literal" / "drop-cube" / "swap-set-reset"; false on unknown.
bool parse_netlist_mutation(const std::string& name, NetlistMutation* out);

/// Apply the `which`-th site of mutation `m` to `netlist` in place.
/// Returns false (netlist untouched) when `which` is past the last site —
/// callers iterate `which = 0, 1, ...` until it fails to exhaust all
/// mutants of a kind.
bool mutate_netlist(Netlist& netlist, NetlistMutation m, int which = 0);

}  // namespace sitm
