#include "mlogic/divisors.hpp"

#include <algorithm>
#include <set>

namespace sitm {

namespace {

/// Max subset enumeration width: subsets are enumerated exhaustively only
/// when a cube/cover has at most this many literals/terms.
constexpr int kMaxSubsetWidth = 6;

/// Upper bound on emitted candidates (the cheapest by literal count).
constexpr std::size_t kMaxDivisors = 128;

/// Canonical key for dedup.
std::vector<Cube> key_of(Cover c) {
  c.make_minimal_wrt_containment();
  c.sort();
  return c.cubes();
}

class Collector {
 public:
  explicit Collector(const Cover& target) : target_(target) {}

  void add(Cover divisor) {
    divisor.make_minimal_wrt_containment();
    divisor.sort();
    if (divisor.empty()) return;
    // Trivial candidates are useless: single literals do not decompose
    // anything (the gate already has the literal), and the full cover is the
    // identity decomposition.
    if (divisor.num_literals() < 2) return;
    if (key_of(divisor) == key_of(target_)) return;
    if (seen_.insert(divisor.cubes()).second)
      out_.push_back(std::move(divisor));
  }

  std::vector<Cover> take() {
    std::stable_sort(out_.begin(), out_.end(),
                     [](const Cover& a, const Cover& b) {
                       return a.num_literals() < b.num_literals();
                     });
    if (out_.size() > kMaxDivisors) out_.resize(kMaxDivisors);
    return std::move(out_);
  }

 private:
  const Cover& target_;
  std::set<std::vector<Cube>> seen_;
  std::vector<Cover> out_;
};

/// All AND-decompositions of a cube: subsets of its literals with
/// 2 <= size < num_literals (size-k subsets for k >= 2).
void add_cube_subsets(const Cube& cube, int num_vars, int max_width,
                      Collector& out) {
  std::vector<int> vars;
  for (int v = 0; v < num_vars; ++v)
    if (cube.has_literal(v)) vars.push_back(v);
  const int k = static_cast<int>(vars.size());
  if (k < 3) return;  // a 2-literal cube splits only into trivial literals
  if (k <= max_width) {
    for (unsigned mask = 1; mask < (1u << k); ++mask) {
      const int bits = __builtin_popcount(mask);
      if (bits < 2 || bits >= k) continue;
      Cube sub = Cube::one();
      for (int i = 0; i < k; ++i)
        if (mask & (1u << i))
          sub = sub.with_literal(vars[i], cube.polarity(vars[i]));
      out.add(Cover(num_vars, {sub}));
    }
  } else {
    // Wide cubes: pairs only.
    for (int i = 0; i < k; ++i)
      for (int j = i + 1; j < k; ++j) {
        Cube sub = Cube::one()
                       .with_literal(vars[i], cube.polarity(vars[i]))
                       .with_literal(vars[j], cube.polarity(vars[j]));
        out.add(Cover(num_vars, {sub}));
      }
  }
}

/// All OR-decompositions: subsets of the cover's terms.
void add_term_subsets(const Cover& cover, int max_width, Collector& out) {
  const int t = static_cast<int>(cover.size());
  if (t < 2) return;
  if (t <= max_width) {
    for (unsigned mask = 1; mask < (1u << t); ++mask) {
      const int bits = __builtin_popcount(mask);
      if (bits < 1 || bits >= t) continue;
      Cover sub(cover.num_vars());
      for (int i = 0; i < t; ++i)
        if (mask & (1u << i)) sub.add(cover.cubes()[i]);
      // Single-cube subsets also feed AND-decomposition below; multi-cube
      // subsets are OR gates.
      out.add(std::move(sub));
    }
  } else {
    for (int i = 0; i < t; ++i) {
      out.add(Cover(cover.num_vars(), {cover.cubes()[i]}));
      for (int j = i + 1; j < t; ++j)
        out.add(Cover(cover.num_vars(), {cover.cubes()[i], cover.cubes()[j]}));
    }
  }
}

}  // namespace

std::vector<Cover> generate_divisors(const Cover& cover) {
  Collector out(cover);

  // Kernels and co-kernels.
  const auto kernels = all_kernels(cover);
  for (const auto& k : kernels) {
    out.add(k.kernel);
    if (!k.cokernel.is_one())
      out.add(Cover(cover.num_vars(), {k.cokernel}));
    // AND/OR decompositions of kernels (sub-kernels are found by the
    // recursive kernel enumeration itself).
    add_term_subsets(k.kernel, kMaxSubsetWidth, out);
    for (const auto& c : k.kernel.cubes())
      add_cube_subsets(c, cover.num_vars(), kMaxSubsetWidth, out);
  }

  // OR-decomposition of the cover itself.
  add_term_subsets(cover, kMaxSubsetWidth, out);

  // AND-decomposition of each cube.
  for (const auto& c : cover.cubes())
    add_cube_subsets(c, cover.num_vars(), kMaxSubsetWidth, out);

  return out.take();
}

}  // namespace sitm
