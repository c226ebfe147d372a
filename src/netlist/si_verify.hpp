#pragma once
// Gate-level speed-independence verification.
//
// Composes the standard-C netlist with its specification SG and explores the
// closed system with every gate (first-level SOP gates and C elements) given
// an unbounded delay.  The implementation is speed-independent and conforms
// to the specification iff during this exploration
//   * every signal transition produced by the circuit is allowed by the SG
//     in the current specification state (conformance),
//   * no excited gate output is ever dis-excited by another transition
//     firing (semi-modularity; an excited-then-disabled gate is a hazard).
//
// C elements follow the Muller semantics out = C(S, ~R): the output rises
// when S=1,R=0, falls when S=0,R=1, and holds otherwise, so transient
// S=R=1 overlaps (a lagging set network) are legal.
//
// This is the independent check behind the paper's remark that "all the
// implementations have been verified to be speed-independent".
//
// Word-parallel excitation.  A composite state is c = (q, nets): the spec
// state q and the values of the set/reset nets of every C element.  Every
// gate reads only signal values, i.e. code(q), so for each spec state q the
// verifier evaluates each cover once, up front, into three words:
//   gate[q]    bit 2i = impl i's set (or combinational) cover at code(q),
//              bit 2i+1 = its reset cover (the netlist's GateTable row,
//              the same table the check stage reads);
//   value[q]   bit 2i = the value of impl i's signal in q;
//   inputs[q]  bit j = input j has an enabled event in q.
// The excited elements of c are then three words, one per element class:
//   inputs     inputs[q];
//   nets       (gate[q] ^ nets) & sequential-net mask — a net is excited
//              iff its cover disagrees with its current value;
//   outputs    (S & ~R & ~V) | (R & ~S & V) for C elements, with S, R the
//              even-aligned set/reset nets and V = value[q] (the Muller rule
//              above), or'ed with (gate[q] ^ V) & combinational mask, since
//              a complex gate is excited iff its cover disagrees with its
//              signal.
// Each bit is exactly the per-element test it replaces, evaluated on the
// same (code(q), nets).  Semi-modularity after firing element e into c' is
// `excited(c) & ~excited(c')` on the net and output words with e's own bit
// cleared; the lowest impl among the set bits is the first dis-excited
// element in element order (inputs, then per impl set net, reset net,
// output), so the hazard names the same gate an element-by-element scan
// would.  Successors are still generated in element order, so the
// exploration order, every verdict and the state count are unchanged.
//
// Packed composite states.  The DFS stack and the visited set hold each
// composite state as one 64-bit key,
//   key = q | nets << bit_width(num_states),
// so q takes the low bit_width(num_states) bits and the nets the
// bit_width(seq_net_mask) bits above.  The visited set is one
// open-addressed array of such keys (linear probing, 16 slots at first,
// doubling at 70 % load) whose empty slot is ~0: a key uses at most 63
// bits, so its top bit is clear and ~0 is never a key.  When the two widths
// sum to more than 63 (about 27 or more C elements), the same exploration
// runs over 16-byte (q, nets) slots instead, with q == kNoState marking an
// empty slot.  The key is only a representation: both widths visit the
// same states in the same order, so every SiVerifyResult field is
// identical.  The slot size is what makes ring5's 518,144 states cheap:
// its 2^20 slots take 8 MB, where a generic FlatMap<Composite, char> spends
// 25 bytes a slot (the 16-byte state, the value and a separate used byte).

#include <cstddef>
#include <string>

#include "netlist/netlist.hpp"
#include "util/run_guard.hpp"

namespace sitm {

struct SiVerifyResult {
  bool ok = true;           ///< proven speed-independent (full exploration)
  std::string why;          ///< human-readable failure description
  std::size_t num_states = 0;  ///< distinct composite states discovered
  /// The exploration ended early (state budget, deadline or cancellation)
  /// without finding a violation: the netlist is *unverified*, not failed.
  /// `ok` is false so no caller mistakes it for a proof; `stopped` says
  /// which limit ended it.
  bool unverified = false;
  GuardStop stopped = GuardStop::kNone;

  explicit operator bool() const { return ok; }
};

/// Verify `netlist` against its SG.  `max_states` bounds the composite
/// exploration; exceeding it — or exhausting `guard`, polled once per
/// composite state — returns an `unverified` result instead of throwing, so
/// callers can degrade gracefully (report "unverified" rather than
/// "failed").  Hazards and conformance violations still report ok=false
/// with unverified=false.
SiVerifyResult verify_speed_independence(const Netlist& netlist,
                                         std::size_t max_states = 1u << 20,
                                         const RunGuard* guard = nullptr);

}  // namespace sitm
