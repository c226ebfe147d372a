#include "support/exact.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"

namespace sitm {

namespace {

bool hits_off(const Cube& c, const std::vector<std::uint64_t>& off) {
  for (auto code : off)
    if (c.contains_code(code)) return true;
  return false;
}

/// Enumerate the maximal off-disjoint expansions of `cube` into `out`.
void expand_all(const Cube& cube, const std::vector<std::uint64_t>& off,
                int num_vars, std::set<Cube>& seen, std::vector<Cube>& out,
                std::size_t max_primes) {
  if (!seen.insert(cube).second) return;
  if (out.size() > max_primes)
    throw Error("minimize_exact: prime explosion beyond max_primes");
  bool maximal = true;
  for (int v = 0; v < num_vars; ++v) {
    if (!cube.has_literal(v)) continue;
    const Cube wider = cube.without_literal(v);
    if (!hits_off(wider, off)) {
      maximal = false;
      expand_all(wider, off, num_vars, seen, out, max_primes);
    }
  }
  if (maximal) out.push_back(cube);
}

}  // namespace

std::vector<Cube> all_primes(const std::vector<std::uint64_t>& on,
                             const std::vector<std::uint64_t>& off,
                             int num_vars, const ExactOptions& opts) {
  if (num_vars > opts.max_vars)
    throw Error("all_primes: too many variables for exact minimization");
  std::set<Cube> seen;
  std::vector<Cube> primes;
  for (auto code : on)
    expand_all(Cube::minterm(code, num_vars), off, num_vars, seen, primes,
               opts.max_primes);
  // Dedup (different minterms may expand to the same prime) and drop
  // non-maximal leftovers (a cube maximal from one seed can be contained in
  // a prime discovered from another).
  std::sort(primes.begin(), primes.end());
  primes.erase(std::unique(primes.begin(), primes.end()), primes.end());
  std::vector<Cube> maximal;
  for (const auto& c : primes) {
    bool contained = false;
    for (const auto& other : primes) {
      if (!(other == c) && other.contains(c)) {
        contained = true;
        break;
      }
    }
    if (!contained) maximal.push_back(c);
  }
  return maximal;
}

Cover minimize_exact(const std::vector<std::uint64_t>& on_in,
                     const std::vector<std::uint64_t>& off_in, int num_vars,
                     const ExactOptions& opts) {
  const std::uint64_t mask =
      num_vars >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << num_vars) - 1);
  std::vector<std::uint64_t> on, off;
  for (auto c : on_in) on.push_back(c & mask);
  for (auto c : off_in) off.push_back(c & mask);
  std::sort(on.begin(), on.end());
  on.erase(std::unique(on.begin(), on.end()), on.end());
  std::sort(off.begin(), off.end());
  off.erase(std::unique(off.begin(), off.end()), off.end());
  if (on.empty()) return Cover::zero(num_vars);
  if (off.empty()) return Cover::one(num_vars);

  const std::vector<Cube> primes = all_primes(on, off, num_vars, opts);

  // Covering table: which on-minterms each prime covers.
  const std::size_t P = primes.size(), M = on.size();
  std::vector<std::vector<int>> covers(P);
  for (std::size_t p = 0; p < P; ++p)
    for (std::size_t m = 0; m < M; ++m)
      if (primes[p].contains_code(on[m]))
        covers[p].push_back(static_cast<int>(m));

  // Branch and bound on literal count.
  std::vector<int> best_choice;
  int best_cost = INT32_MAX;

  struct Frame {
    std::vector<char> covered;
    std::size_t num_covered = 0;
    std::vector<int> chosen;
    int cost = 0;
  };

  auto first_uncovered = [&](const Frame& f) -> int {
    for (std::size_t m = 0; m < M; ++m)
      if (!f.covered[m]) return static_cast<int>(m);
    return -1;
  };

  auto rec = [&](auto&& self, Frame& frame) -> void {
    if (frame.cost >= best_cost) return;  // bound
    const int m = first_uncovered(frame);
    if (m < 0) {
      best_cost = frame.cost;
      best_choice = frame.chosen;
      return;
    }
    // Branch over the primes covering minterm m, cheapest first.
    std::vector<std::size_t> branches;
    for (std::size_t p = 0; p < P; ++p)
      if (primes[p].contains_code(on[static_cast<std::size_t>(m)]))
        branches.push_back(p);
    std::sort(branches.begin(), branches.end(), [&](std::size_t a, std::size_t b) {
      return primes[a].num_literals() < primes[b].num_literals();
    });
    for (std::size_t p : branches) {
      Frame next = frame;
      next.chosen.push_back(static_cast<int>(p));
      next.cost += primes[p].num_literals();
      for (int covered_m : covers[p]) {
        if (!next.covered[static_cast<std::size_t>(covered_m)]) {
          next.covered[static_cast<std::size_t>(covered_m)] = 1;
          ++next.num_covered;
        }
      }
      self(self, next);
    }
  };

  Frame root;
  root.covered.assign(M, 0);
  rec(rec, root);

  Cover out(num_vars);
  for (int p : best_choice) out.add(primes[static_cast<std::size_t>(p)]);
  out.sort();
  return out;
}

}  // namespace sitm
