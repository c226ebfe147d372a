#pragma once
// Exact two-level minimization (Quine-McCluskey flavoured) for small
// instances: all primes are enumerated by exhaustive expansion against the
// off-set, then a minimum-literal cover is found by branch-and-bound set
// covering with essential-prime propagation.
//
// Exponential in the worst case: the quality referee the tests hold the
// heuristic minimizer (minimize_onoff) against.  It lives in the test
// support library, not in libsitm, because nothing in the flow calls it.

#include <cstdint>
#include <vector>

#include "boolf/cover.hpp"

namespace sitm {

struct ExactOptions {
  int max_vars = 16;             ///< refuse larger instances
  std::size_t max_primes = 20000;  ///< refuse prime blow-ups
};

/// All prime implicants of the function with on-set `on`, off-set `off`
/// (everything else don't-care): the maximal cubes disjoint from `off` that
/// cover at least one `on` minterm.
std::vector<Cube> all_primes(const std::vector<std::uint64_t>& on,
                             const std::vector<std::uint64_t>& off,
                             int num_vars, const ExactOptions& opts = {});

/// Minimum-literal cover (ties broken towards fewer cubes).  Throws
/// sitm::Error when the instance exceeds the option limits.
Cover minimize_exact(const std::vector<std::uint64_t>& on,
                     const std::vector<std::uint64_t>& off, int num_vars,
                     const ExactOptions& opts = {});

}  // namespace sitm
