#pragma once
// Gate-level netlists in the standard-C architecture (paper Figure 2).
//
// Every non-input signal is implemented either
//   * combinationally: one SOP gate computing the signal (complete cover,
//     the C element degenerates to a wire), or
//   * sequentially: two first-level SOP gates (set and reset networks)
//     feeding a C element.
//
// SOP gate functions are expressed over SG signal indices.  The "complexity"
// of a gate is the paper's literal measure: the minimum of the literal
// counts of the SOP of the function and of its complement.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "boolf/cover.hpp"
#include "sg/state_graph.hpp"

namespace sitm {

/// Implementation of one non-input signal.
struct SignalImpl {
  int signal = -1;
  bool combinational = false;
  Cover set;    ///< set network (or the complete cover when combinational)
  Cover reset;  ///< reset network (unused when combinational)
  /// Gate complexities as computed by the synthesizer (which minimizes the
  /// complemented form against the full don't-care space); -1 = derive
  /// exactly from the cover.
  int set_complexity = -1;
  int reset_complexity = -1;
  /// Literal complexity of the whole implementation as published: the
  /// combinational gate, or max over the set/reset gates.
  int complexity = 0;

  /// Structural equality (same covers, complexities, architecture).
  bool operator==(const SignalImpl&) const = default;
};

/// The paper's gate complexity measure: min(literals(sop), literals(sop of
/// complement)), where the complement is minimized with the same don't-care
/// space.  `complement` may be omitted, in which case it is derived exactly.
int gate_complexity(const Cover& sop,
                    const std::optional<Cover>& complement = std::nullopt);

/// A standard-C architecture netlist for a State Graph.
class Netlist {
 public:
  explicit Netlist(const StateGraph* sg) : sg_(sg) {}

  const StateGraph& sg() const { return *sg_; }

  void add_impl(SignalImpl impl) { impls_.push_back(std::move(impl)); }
  const std::vector<SignalImpl>& impls() const { return impls_; }
  /// Mutable access — the mutation harness of netlist/equiv.hpp corrupts
  /// implementations in place to exercise the checker.
  std::vector<SignalImpl>& impls() { return impls_; }
  const SignalImpl* impl_of(int signal) const;

  /// Number of C elements (non-combinational signals).
  int num_c_elements() const;
  /// Total literals over all SOP gates (paper's cost, excluding C elements).
  int total_literals() const;
  /// Histogram of gate complexities: hist[n] = number of SOP gates whose
  /// complexity is n (combinational gates count once; sequential signals
  /// contribute their set and reset gates separately).
  std::vector<int> complexity_histogram() const;
  /// Largest gate complexity in the netlist.
  int max_gate_complexity() const;

  /// Pretty printer ("a = C(set = ..., reset = ...)").
  std::string to_string() const;

 private:
  const StateGraph* sg_;
  std::vector<SignalImpl> impls_;
};

/// Every gate network of a netlist evaluated at every SG state, as words:
/// bit 2i is impl i's set (or complete) cover at the state's code, bit 2i+1
/// its reset cover (0 for a combinational impl).  Each state's row spans
/// as many words as its impls need, so any number of impls fits.  The
/// check stage and the SI verifier both read it, so each cover is
/// evaluated once per state.
class GateTable {
 public:
  explicit GateTable(const Netlist& netlist);

  /// The first word of state q's bits.
  const std::uint64_t* row(StateId q) const {
    return words_.data() + static_cast<std::size_t>(q) * stride_;
  }
  bool test(StateId q, std::size_t bit) const {
    return (row(q)[bit / 64] >> (bit % 64)) & 1u;
  }

 private:
  std::size_t stride_;  ///< words per state
  std::vector<std::uint64_t> words_;
};

}  // namespace sitm
