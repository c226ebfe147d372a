#include "boolf/cover.hpp"

#include <algorithm>

namespace sitm {

int Cover::num_literals() const {
  int n = 0;
  for (const auto& c : cubes_) n += c.num_literals();
  return n;
}

bool Cover::eval(std::uint64_t code) const {
  for (const auto& c : cubes_)
    if (c.contains_code(code)) return true;
  return false;
}

void Cover::make_minimal_wrt_containment() {
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (const auto& c : cubes_) {
    bool contained = false;
    for (const auto& k : kept)
      if (k.contains(c)) {
        contained = true;
        break;
      }
    if (contained) continue;
    std::erase_if(kept, [&](const Cube& k) { return c.contains(k); });
    kept.push_back(c);
  }
  cubes_ = std::move(kept);
}

void Cover::merge_adjacent() {
  bool changed = true;
  while (changed) {
    changed = false;
    make_minimal_wrt_containment();
    for (std::size_t i = 0; i < cubes_.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < cubes_.size() && !changed; ++j) {
        const Cube& a = cubes_[i];
        const Cube& b = cubes_[j];
        if (a.care == b.care && a.distance(b) == 1) {
          const Cube merged = a.supercube(b);
          cubes_[i] = merged;
          cubes_.erase(cubes_.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
  }
}

void Cover::sort() { std::sort(cubes_.begin(), cubes_.end()); }

Cover Cover::cofactor(int var, bool value) const {
  Cover out(num_vars_);
  for (const auto& c : cubes_) {
    if (c.has_literal(var) && c.polarity(var) != value) continue;
    out.add(c.without_literal(var));
  }
  return out;
}

namespace {

/// Pick the splitting variable: the most binate variable (appears in both
/// polarities in the most cubes); falls back to the most frequent variable.
int splitting_var(const std::vector<Cube>& cubes) {
  int pos[64] = {};
  int neg[64] = {};
  std::uint64_t support = 0;
  for (const auto& c : cubes) {
    support |= c.care;
    std::uint64_t bits = c.care;
    while (bits) {
      const int v = __builtin_ctzll(bits);
      bits &= bits - 1;
      (c.polarity(v) ? pos[v] : neg[v])++;
    }
  }
  int best = -1, best_score = -1;
  std::uint64_t bits = support;
  while (bits) {
    const int v = __builtin_ctzll(bits);
    bits &= bits - 1;
    const int binate = std::min(pos[v], neg[v]);
    const int score = binate > 0 ? (1 << 20) + binate * 1024 + pos[v] + neg[v]
                                 : pos[v] + neg[v];
    if (score > best_score) {
      best_score = score;
      best = v;
    }
  }
  return best;
}

}  // namespace

Cover Cover::complement() const {
  for (const auto& c : cubes_)
    if (c.is_one()) return zero(num_vars_);
  if (cubes_.empty()) return one(num_vars_);
  if (cubes_.size() == 1) {
    // De Morgan on a single cube.
    Cover out(num_vars_);
    const Cube& c = cubes_[0];
    std::uint64_t bits = c.care;
    while (bits) {
      const int v = __builtin_ctzll(bits);
      bits &= bits - 1;
      out.add(Cube::literal(v, !c.polarity(v)));
    }
    return out;
  }
  const int v = splitting_var(cubes_);
  Cover out(num_vars_);
  for (bool value : {false, true}) {
    const Cover part = cofactor(v, value).complement();
    for (Cube c : part.cubes()) out.add(c.with_literal(v, value));
  }
  // Expand each complement cube against this cover: removing a literal is
  // sound as long as the widened cube stays disjoint from the on-set, and
  // widening only merges the branch results (ab'c' + a'db'c' -> b'c').
  for (Cube& c : out.cubes()) {
    for (int var = 0; var < num_vars_; ++var) {
      if (!c.has_literal(var)) continue;
      const Cube wider = c.without_literal(var);
      bool disjoint = true;
      for (const auto& on : cubes_) {
        if (on.intersects(wider)) {
          disjoint = false;
          break;
        }
      }
      if (disjoint) c = wider;
    }
  }
  out.make_minimal_wrt_containment();
  return out;
}

std::uint64_t Cover::support() const {
  std::uint64_t s = 0;
  for (const auto& c : cubes_) s |= c.care;
  return s;
}

std::string Cover::to_string(const std::vector<std::string>& names) const {
  if (cubes_.empty()) return "0";
  std::string out;
  for (const auto& c : cubes_) {
    if (!out.empty()) out += " + ";
    out += c.to_string(names);
  }
  return out;
}

}  // namespace sitm
