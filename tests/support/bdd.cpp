#include "support/bdd.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/flat_map.hpp"

namespace sitm {

namespace {
constexpr std::size_t kInitialUnique = 1u << 10;
/// Fixed computed-cache size: 2^15 entries (512 KiB).  Lossy by design —
/// a collision overwrites — so this bounds memory for arbitrarily long
/// operation sequences while still capturing the recursion locality of ITE.
constexpr std::size_t kComputedSize = 1u << 15;
}  // namespace

BddManager::BddManager(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > 64) throw Error("BddManager: 0..64 variables");
  nodes_.push_back(Node{num_vars_, kFalse, kFalse});  // 0 = FALSE
  nodes_.push_back(Node{num_vars_, kTrue, kTrue});    // 1 = TRUE
  unique_.assign(kInitialUnique, UniqueSlot{});
  unique_mask_ = kInitialUnique - 1;
  computed_.assign(kComputedSize, IteSlot{});
  computed_mask_ = kComputedSize - 1;
}

void BddManager::grow_unique() {
  std::vector<UniqueSlot> old = std::move(unique_);
  unique_.assign(old.size() * 2, UniqueSlot{});
  unique_mask_ = unique_.size() - 1;
  for (const UniqueSlot& slot : old) {
    if (slot.ref == kEmptySlot) continue;
    std::size_t i = hash_node(slot.var, slot.low, slot.high) & unique_mask_;
    while (unique_[i].ref != kEmptySlot) i = (i + 1) & unique_mask_;
    unique_[i] = slot;
  }
}

BddRef BddManager::make(int var, BddRef low, BddRef high) {
  if (low == high) return low;
  // Grow at ~70% load so linear probes stay short.
  if ((nodes_.size() + 1) * 10 >= unique_.size() * 7) grow_unique();
  std::size_t i = hash_node(var, low, high) & unique_mask_;
  while (true) {
    UniqueSlot& slot = unique_[i];
    if (slot.ref == kEmptySlot) {
      const BddRef ref = static_cast<BddRef>(nodes_.size());
      nodes_.push_back(Node{var, low, high});
      slot = UniqueSlot{var, low, high, ref};
      return ref;
    }
    if (slot.var == var && slot.low == low && slot.high == high)
      return slot.ref;
    i = (i + 1) & unique_mask_;
  }
}

BddRef BddManager::literal(int v, bool positive) {
  if (v < 0 || v >= num_vars_) throw Error("BddManager::literal: bad var");
  return positive ? make(v, kFalse, kTrue) : make(v, kTrue, kFalse);
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  IteSlot& cache = computed_[hash_ite(f, g, h) & computed_mask_];
  if (cache.f == f && cache.g == g && cache.h == h) return cache.result;

  const int vf = nodes_[f].var;
  const int vg = nodes_[g].var;
  const int vh = nodes_[h].var;
  const int top = std::min({vf, vg, vh});

  const BddRef f0 = vf == top ? nodes_[f].low : f;
  const BddRef f1 = vf == top ? nodes_[f].high : f;
  const BddRef g0 = vg == top ? nodes_[g].low : g;
  const BddRef g1 = vg == top ? nodes_[g].high : g;
  const BddRef h0 = vh == top ? nodes_[h].low : h;
  const BddRef h1 = vh == top ? nodes_[h].high : h;

  const BddRef low = ite(f0, g0, h0);
  const BddRef high = ite(f1, g1, h1);
  const BddRef result = make(top, low, high);
  // `cache` stays valid across the recursion (the table never resizes);
  // whatever the recursive calls wrote there loses the slot to this entry.
  cache = IteSlot{f, g, h, result};
  return result;
}

bool BddManager::eval(BddRef f, std::uint64_t assignment) const {
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    f = ((assignment >> n.var) & 1) ? n.high : n.low;
  }
  return f == kTrue;
}

bool BddManager::pick_one(BddRef f, std::uint64_t* assignment) const {
  if (f == kFalse) return false;
  std::uint64_t a = 0;
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    if (n.high != kFalse) {
      a |= std::uint64_t{1} << n.var;
      f = n.high;
    } else {
      f = n.low;
    }
  }
  *assignment = a;
  return true;
}

std::size_t BddManager::dag_size(BddRef f) const {
  std::vector<BddRef> stack{f};
  FlatMap<BddRef, char> seen;
  std::size_t n = 0;
  while (!stack.empty()) {
    const BddRef node = stack.back();
    stack.pop_back();
    if (!seen.emplace(node, 1).second) continue;
    ++n;
    if (!is_const(node)) {
      stack.push_back(nodes_[node].low);
      stack.push_back(nodes_[node].high);
    }
  }
  return n;
}

}  // namespace sitm
