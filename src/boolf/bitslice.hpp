#pragma once
// Bit-sliced (transposed) off-set for two-level minimization.
//
// minimize_onoff spends nearly all of its time in expand_minterm asking
// "does this widened cube contain an off-minterm?" (~90% of synthesize_all
// samples).  The row-major scan answers it by walking the off-minterm list
// and testing each code against the cube.  This structure stores the off-set
// transposed instead — one packed bit-column per variable over off-minterm
// indices, in the bit-parallel style of the ESPRESSO-family minimizers — so
// the same question becomes a word-parallel AND-reduction over the cube's
// literal columns, 64 off-minterms per step, with early exit as soon as a
// word's surviving set goes empty.
//
// The expansion trial is sharper still.  When a cube C that contains no
// off-minterm drops its literal on variable v, the widened cube captures
// exactly the off-minterms whose *unique* disagreement with C is v.  Seeding
// the reduction with the v-mismatch column therefore starts each trial from
// the small surviving off-minterm set for that literal instead of the full
// off-set, and the remaining literal columns only narrow it further.

#include <cstdint>
#include <vector>

#include "boolf/cube.hpp"

namespace sitm {

class BitSlicedOffSet {
 public:
  BitSlicedOffSet() = default;
  /// Transpose `off` (full minterm codes over `num_vars` variables).
  /// Codes must already be masked to `num_vars` bits.
  BitSlicedOffSet(const std::vector<std::uint64_t>& off, int num_vars);

  int num_vars() const { return num_vars_; }
  bool empty() const { return n_ == 0; }

  /// Would dropping the literal on `v` from cube `c` capture an off-minterm?
  /// Exact under the precondition that `c` itself hits no off-minterm: true
  /// iff some off-minterm disagrees with `c` on `v` and on no other cared
  /// variable.
  bool removal_hits(const Cube& c, int v) const;

 private:
  /// Column of off-minterm indices whose variable `v` is 1.
  const std::uint64_t* col(int v) const {
    return cols_.data() + static_cast<std::size_t>(v) * words_;
  }

  int num_vars_ = 0;
  std::size_t n_ = 0;       ///< number of off-minterms
  std::size_t words_ = 0;   ///< 64-bit words per column
  std::uint64_t tail_ = 0;  ///< valid-bit mask of the last word
  /// Column-major: cols_[v * words_ + w] covers minterm indices
  /// [64w, 64w+63] of variable v.
  std::vector<std::uint64_t> cols_;
};

/// Expand a minterm into a prime-ish cube against a bit-sliced off-set.
/// `code` must lie outside the off-set, as every on-minterm of
/// minimize_onoff does once its on/off overlap check passed.  Returns the
/// same cube, literal for literal, as the row-major expand_minterm over the
/// same off-set and `var_order`.
Cube expand_on_minterm(std::uint64_t code, const BitSlicedOffSet& off,
                       const std::vector<int>& var_order);

}  // namespace sitm
