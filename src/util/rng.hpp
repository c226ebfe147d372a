#pragma once
// Deterministic, seedable RNG (xoshiro256**) for property tests and synthetic
// workload generation.  We do not use std::mt19937 so that generated
// benchmark families are stable across standard library implementations.

#include <cstdint>

namespace sitm {

/// Small, fast, deterministic PRNG (xoshiro256**, Blackman & Vigna).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& word : state_) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      word = x ^ (x >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0,1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace sitm
