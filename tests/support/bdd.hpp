#pragma once
// Reduced Ordered Binary Decision Diagrams.
//
// A small, self-contained ROBDD package in the style of the classic
// Brace-Rudell-Bryant design: a unique table for node hashing, a computed
// table for ITE memoization, and just the operators the symbolic
// equivalence oracle (support/bdd_equiv.hpp) needs to encode state codes
// and covers over the SG signal variables.  It lives in the test support
// library, not in libsitm: the flow's check is explicit (netlist/equiv.hpp)
// and the tests hold it against this symbolic proof.
//
// Node 0 is the constant FALSE, node 1 the constant TRUE.  Variables are
// ordered by their index.
//
// Both hash tables follow the classic package design instead of generic
// containers: the unique table is an open-addressing power-of-two table
// whose slots hold the (var, low, high) key inline (one cache line probe,
// no node allocation), and the ITE cache is a bounded direct-mapped lossy
// cache — colliding entries simply overwrite, which caps memory and matches
// how production BDD packages (CUDD, BuDDy) behave.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sitm {

using BddRef = std::uint32_t;

class BddManager {
 public:
  explicit BddManager(int num_vars);

  int num_vars() const { return num_vars_; }

  static constexpr BddRef kFalse = 0;
  static constexpr BddRef kTrue = 1;

  BddRef bdd_false() const { return kFalse; }
  BddRef bdd_true() const { return kTrue; }
  /// The function of variable `v` (or its complement).
  BddRef literal(int v, bool positive = true);

  // ----- operators ------------------------------------------------------
  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bdd_not(BddRef f) { return ite(f, kFalse, kTrue); }
  BddRef bdd_and(BddRef f, BddRef g) { return ite(f, g, kFalse); }
  BddRef bdd_or(BddRef f, BddRef g) { return ite(f, kTrue, g); }

  // ----- queries ----------------------------------------------------------
  /// Value of f under `assignment` (bit v = variable v): the truth-table
  /// probe the tests check every operator against.
  bool eval(BddRef f, std::uint64_t assignment) const;
  /// Any satisfying assignment; returns false if f == FALSE.
  bool pick_one(BddRef f, std::uint64_t* assignment) const;
  /// Node count of the (shared) graph rooted at f.
  std::size_t dag_size(BddRef f) const;
  std::size_t num_nodes() const { return nodes_.size(); }

  int var_of(BddRef f) const { return nodes_[f].var; }
  BddRef low_of(BddRef f) const { return nodes_[f].low; }
  BddRef high_of(BddRef f) const { return nodes_[f].high; }
  bool is_const(BddRef f) const { return f <= 1; }

 private:
  struct Node {
    int var;  // num_vars_ for terminals
    BddRef low, high;
  };

  BddRef make(int var, BddRef low, BddRef high);

  static constexpr BddRef kEmptySlot = 0xffffffffu;

  /// Open-addressing unique-table slot: the node key inline plus the node id.
  struct UniqueSlot {
    std::int32_t var = 0;
    BddRef low = 0, high = 0;
    BddRef ref = kEmptySlot;
  };
  /// Direct-mapped computed-cache entry for ite(f, g, h) = result.
  struct IteSlot {
    BddRef f = kEmptySlot, g = 0, h = 0;
    BddRef result = 0;
  };

  static std::uint64_t hash_node(std::int32_t var, BddRef low, BddRef high) {
    std::uint64_t x = (static_cast<std::uint64_t>(var) << 1) ^
                      (static_cast<std::uint64_t>(low) << 32) ^ high;
    x *= 0x9e3779b97f4a7c15ULL;
    return x ^ (x >> 29);
  }
  static std::uint64_t hash_ite(BddRef f, BddRef g, BddRef h) {
    std::uint64_t x = (static_cast<std::uint64_t>(f) << 40) ^
                      (static_cast<std::uint64_t>(g) << 20) ^ h;
    x *= 0xff51afd7ed558ccdULL;
    return x ^ (x >> 33);
  }

  void grow_unique();

  int num_vars_;
  std::vector<Node> nodes_;
  std::vector<UniqueSlot> unique_;
  std::size_t unique_mask_ = 0;
  std::vector<IteSlot> computed_;
  std::size_t computed_mask_ = 0;
};

}  // namespace sitm
