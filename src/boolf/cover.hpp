#pragma once
// Sum-of-products covers and the part of the classical cover algebra of
// two-level synthesis that the flow uses: cofactors, complement (the unate
// recursive paradigm of espresso) and containment cleanup.

#include <string>
#include <vector>

#include "boolf/cube.hpp"

namespace sitm {

/// A sum-of-products expression over `num_vars` variables.
class Cover {
 public:
  Cover() = default;
  explicit Cover(int num_vars) : num_vars_(num_vars) {}
  Cover(int num_vars, std::vector<Cube> cubes)
      : num_vars_(num_vars), cubes_(std::move(cubes)) {}

  static Cover zero(int num_vars) { return Cover(num_vars); }
  static Cover one(int num_vars) { return Cover(num_vars, {Cube::one()}); }

  int num_vars() const { return num_vars_; }
  const std::vector<Cube>& cubes() const { return cubes_; }
  std::vector<Cube>& cubes() { return cubes_; }
  bool empty() const { return cubes_.empty(); }
  std::size_t size() const { return cubes_.size(); }

  void add(const Cube& c) { cubes_.push_back(c); }

  /// Total number of literals (the paper's complexity measure for a
  /// sum-of-products gate).
  int num_literals() const;

  /// Evaluate on a full assignment.
  bool eval(std::uint64_t code) const;

  /// Remove duplicate and single-cube-contained cubes.
  void make_minimal_wrt_containment();
  /// Repeatedly merge distance-1 cube pairs with identical support
  /// (xy + xy' -> x) and drop contained cubes.  Cheap cleanup that brings
  /// recursive complements close to minimal SOPs.
  void merge_adjacent();
  /// Canonical sort for comparisons.
  void sort();

  /// Cofactor with respect to var=value.
  Cover cofactor(int var, bool value) const;

  /// Structural (cube-for-cube) equality — the bit-identity predicate of
  /// the parallel-synthesis equivalence tests, not function equality.
  bool operator==(const Cover& o) const {
    return num_vars_ == o.num_vars_ && cubes_ == o.cubes_;
  }

  /// Complement via unate-recursive De Morgan recursion.
  Cover complement() const;

  /// Variables appearing in some cube, as a mask.
  std::uint64_t support() const;

  /// Render as "a b' + c" using `names[v]` for variable v; "0"/"1" for
  /// constants.
  std::string to_string(const std::vector<std::string>& names) const;

 private:
  int num_vars_ = 0;
  std::vector<Cube> cubes_;
};

}  // namespace sitm
