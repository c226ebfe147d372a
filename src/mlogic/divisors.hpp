#pragma once
// Divisor candidate generation (paper Section 3.1).
//
// For a monotonous cover c(a*) the paper proposes, as candidate functions f
// for a new decomposition signal:
//   * kernels and co-kernels of c(a*);
//   * OR-decompositions: any subset of terms of the SOP (poly-term covers);
//   * AND-decompositions: any subset of literals of a cube;
//   * recursive decompositions of the above (sub-kernels, AND/OR of kernels),
// heuristically pruned to avoid candidate explosion.

#include <vector>

#include "boolf/cover.hpp"
#include "mlogic/division.hpp"

namespace sitm {

/// Candidate divisors for `cover`, deduplicated, sorted by ascending literal
/// count (cheap gates first), trivial (single-literal / full-cover)
/// candidates excluded, and cut to the first 128.
std::vector<Cover> generate_divisors(const Cover& cover);

}  // namespace sitm
