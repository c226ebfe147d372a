#pragma once
// Two-level minimization against explicit on-set / off-set minterm lists
// (espresso-style expand + irredundant).  Minterms not listed in either set
// are don't-cares — the natural setting for covers over SG states, where
// unreachable codes are free.

#include <cstdint>
#include <vector>

#include "boolf/bitslice.hpp"
#include "boolf/cover.hpp"

namespace sitm {

struct MinimizeOptions {
  /// Extra reduce/re-expand refinement passes.
  int passes = 1;
};

/// Minimal-ish SOP cover that contains every `on` minterm and no `off`
/// minterm.  Throws if the two lists intersect.
Cover minimize_onoff(const std::vector<std::uint64_t>& on,
                     const std::vector<std::uint64_t>& off, int num_vars,
                     const MinimizeOptions& opts = {});

/// Expand a single minterm into a prime-ish cube against `off`.
/// `var_order` lists variables in the order literal removal is attempted.
/// Row-major scan of the off-set, which minimize_onoff uses for off-sets
/// under a dozen minterms; the bit-sliced overload in bitslice.hpp returns
/// identical cubes and takes over above that.
Cube expand_minterm(std::uint64_t code, const std::vector<std::uint64_t>& off,
                    int num_vars, const std::vector<int>& var_order);

/// Greedy irredundant: select a subset of `cubes` covering all `on`
/// minterms, essential cubes first, then by descending marginal coverage
/// (ties: fewer literals, then lower cube index).  Candidates are keyed in
/// a max-heap over packed uncovered-minterm words, and a cube is re-scored
/// only when it is popped stale.  Throws if some `on` minterm lies in no
/// cube.
std::vector<Cube> irredundant(const std::vector<Cube>& cubes,
                              const std::vector<std::uint64_t>& on);

}  // namespace sitm
