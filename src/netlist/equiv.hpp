#pragma once
// Formal equivalence of synthesized netlists against the SG, decided over
// the explicit reachable states.
//
// The paper's correctness claim for the standard-C architecture is local
// and per-gate: over the *reachable* states, each combinational gate equals
// the signal's next-state function, and each set/reset network is 1 on the
// corresponding excitation region, 0 on the must-off space, and free of
// 0->1 rises inside its ER∪QR zones (the monotonous cover conditions of
// Section 3; Kondratyev et al., DAC 1994).  `check_equivalence` decides
// exactly that statement.  The reachable set is an explicit list of SG
// states, so reading every network at every reachable state is exhaustive:
//
//   table := GateTable(netlist)   every network at every state, once
//   1. every on-state reads 1     (ER of the edge; next_value for a gate)
//   2. every off-state reads 0
//   3. no arc inside an ER∪QR zone goes from a 0-state to a 1-state
//
// A network is a function of the state code, so this covers every
// reachable code.  Don't-cares are the states in neither set.  The
// off-space of a sequential network is the explicit off-states (NOT a
// complement), mirroring `minimize_onoff`'s treatment of a code shared by a
// quiescent and an off state as hard-off.  The check shares only
// `Cover::eval` with synthesis.
//
// On mismatch the counterexample is the lowest-id violating state with its
// code (for condition 3, the target of the first rising arc of the scan):
// a concrete reachable StateId a human can replay on the SG.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/nlint.hpp"
#include "util/json.hpp"
#include "util/run_guard.hpp"

namespace sitm {

struct CheckOptions {
  NlintOptions nlint;
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
  /// Always 0 (the proof builds no BDD); perfbench/src/flows.cpp reads it.
  std::size_t bdd_nodes = 0;

  /// Message of the first failed verdict, prefixed "equiv: "; empty if ok.
  std::string first_failure() const;

  Json to_json() const;
};

/// Prove every gate of `netlist` equivalent to its excitation/next-state
/// specification over the reachable states.  Charges `guard` (nullptr =
/// unbounded) per reachable code, per on/off/zone state read and per cube at
/// the "check.state" / "check.gate" sites.
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
