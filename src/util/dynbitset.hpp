#pragma once
// Dynamic bitset used for sets of SG states (StateSet).
//
// std::vector<bool> lacks word-level operations; std::bitset is fixed-size.
// This is a minimal, cache-friendly bitset with the set algebra the region
// computations need (union, intersection, difference, iteration).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitwords.hpp"

namespace sitm {

/// Fixed-universe dynamic bitset.  All binary operations require operands of
/// the same universe size.
class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(std::size_t size)
      : size_(size), words_(bitwords::words_for(size)) {}

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void reset(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void set(std::size_t i, bool v) { v ? set(i) : reset(i); }

  void set_all();

  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  bool operator==(const DynBitset& o) const = default;

  DynBitset& operator|=(const DynBitset& o);
  DynBitset& operator&=(const DynBitset& o);
  /// Set difference: remove all elements of `o`.
  DynBitset& operator-=(const DynBitset& o);

  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }
  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }
  friend DynBitset operator-(DynBitset a, const DynBitset& b) { return a -= b; }

  DynBitset operator~() const;

  /// True if this set and `o` share no element.
  bool disjoint(const DynBitset& o) const;

  /// Index of the first set bit, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t first() const;
  /// Index of the first set bit after position i, or npos.
  std::size_t next(std::size_t i) const;

  /// Invoke fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits) {
        const int b = __builtin_ctzll(bits);
        fn(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Packed 64-bit words (tail bits zeroed); equal sets have equal words.
  /// Exposed so set-keyed memo tables can hash/compare without re-walking
  /// bits (the insertion planner keys its caches by region words).
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  void trim_tail();
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace sitm
