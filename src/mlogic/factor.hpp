#pragma once
// Factored forms: recursive algebraic factoring (SIS quick_factor style).
//
// Factoring rewrites a SOP as a tree of sums and products, e.g.
// ab + ac + db + dc  ->  (a + d)(b + c).  The mapper's complexity measure
// stays the SOP one (see netlist/gate_complexity); the netlist writers print
// the factored forms.

#include <memory>
#include <string>
#include <vector>

#include "boolf/cover.hpp"

namespace sitm {

/// The tokens one rendering of a factored form writes.
struct FactoredSyntax {
  const char* not_prefix;  ///< before a negated literal
  const char* not_suffix;  ///< after a negated literal
  const char* and_op;
  const char* or_op;
  const char* zero;
  const char* one;
};

/// Equation syntax, "a b' + c" (the `--eqn` writer).
inline constexpr FactoredSyntax kEqnSyntax{"", "'", " ", " + ", "0", "1"};
/// Verilog syntax, "a & ~b | c".
inline constexpr FactoredSyntax kVerilogSyntax{"~", "", " & ", " | ",
                                               "1'b0", "1'b1"};

/// Node of a factored expression tree.
struct FactoredForm {
  enum class Kind { kLiteral, kAnd, kOr, kZero, kOne };
  Kind kind = Kind::kZero;
  int var = -1;          ///< kLiteral
  bool positive = true;  ///< kLiteral
  std::vector<std::unique_ptr<FactoredForm>> children;  ///< kAnd / kOr

  static std::unique_ptr<FactoredForm> literal(int var, bool positive);
  static std::unique_ptr<FactoredForm> constant(bool one);

  /// Render with names, e.g. "(a + d) (b + c)"; an OR under an AND is
  /// parenthesized.
  std::string to_string(const std::vector<std::string>& names,
                        const FactoredSyntax& syntax = kEqnSyntax) const;
};

/// Recursive algebraic factoring: divide by the best kernel (or literal)
/// until no multi-cube divisor remains.  The result is logically equivalent
/// to `f` and never has more literals than the SOP.
std::unique_ptr<FactoredForm> quick_factor(const Cover& f);

}  // namespace sitm
