// Tests for the exact minimizer and quality cross-checks of the heuristic.

#include <gtest/gtest.h>

#include <cstdint>

#include "support/exact.hpp"
#include "boolf/minimize.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

TEST(Exact, ConstantsAndCorners) {
  EXPECT_TRUE(minimize_exact({}, {0}, 2).empty());
  const Cover one = minimize_exact({0}, {}, 2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.cubes()[0].is_one());
  const Cover f = minimize_exact({0b00}, {0b11}, 2);
  EXPECT_EQ(f.num_literals(), 1);
}

TEST(Exact, XorIsFourLiterals) {
  const Cover f = minimize_exact({0b01, 0b10}, {0b00, 0b11}, 2);
  EXPECT_EQ(f.num_literals(), 4);
  EXPECT_EQ(f.size(), 2u);
}

TEST(Exact, PrimesAreMaximalAndOffDisjoint) {
  Rng rng(5);
  for (int round = 0; round < 30; ++round) {
    const int n = 5;
    std::vector<std::uint64_t> on, off;
    for (std::uint64_t code = 0; code < (1u << n); ++code) {
      const auto r = rng.below(3);
      if (r == 0) on.push_back(code);
      if (r == 1) off.push_back(code);
    }
    if (on.empty() || off.empty()) continue;
    const auto primes = all_primes(on, off, n);
    for (const auto& p : primes) {
      for (auto code : off) EXPECT_FALSE(p.contains_code(code));
      // Maximality: removing any literal hits the off-set.
      for (int v = 0; v < n; ++v) {
        if (!p.has_literal(v)) continue;
        const Cube wider = p.without_literal(v);
        bool hits = false;
        for (auto code : off)
          if (wider.contains_code(code)) hits = true;
        EXPECT_TRUE(hits);
      }
    }
  }
}

TEST(Exact, NeverWorseThanHeuristic) {
  Rng rng(77);
  int heuristic_total = 0, exact_total = 0;
  for (int round = 0; round < 60; ++round) {
    const int n = 5;
    std::vector<std::uint64_t> on, off;
    for (std::uint64_t code = 0; code < (1u << n); ++code) {
      const auto r = rng.below(4);
      if (r == 0) on.push_back(code);
      if (r <= 1 && r > 0) off.push_back(code);
    }
    if (on.empty() || off.empty()) continue;
    const Cover heuristic = minimize_onoff(on, off, n);
    const Cover exact = minimize_exact(on, off, n);
    for (auto code : on) {
      EXPECT_TRUE(exact.eval(code));
      EXPECT_TRUE(heuristic.eval(code));
    }
    for (auto code : off) {
      EXPECT_FALSE(exact.eval(code));
      EXPECT_FALSE(heuristic.eval(code));
    }
    EXPECT_LE(exact.num_literals(), heuristic.num_literals());
    heuristic_total += heuristic.num_literals();
    exact_total += exact.num_literals();
  }
  // The heuristic should stay close to exact overall (within 25%).
  EXPECT_LE(heuristic_total, exact_total + exact_total / 4 + 4);
}

TEST(Exact, RefusesOversizedInstances) {
  ExactOptions opts;
  opts.max_vars = 4;
  EXPECT_THROW(minimize_exact({0}, {31}, 5, opts), Error);
}

TEST(Exact, TieBreaksStillCoverEverything) {
  // Cyclic covering core (no essential primes): on = XOR-ish ring.
  const std::vector<std::uint64_t> on{0b001, 0b010, 0b100, 0b111};
  const std::vector<std::uint64_t> off{0b000, 0b011, 0b101, 0b110};
  const Cover f = minimize_exact(on, off, 3);
  for (auto code : on) EXPECT_TRUE(f.eval(code));
  for (auto code : off) EXPECT_FALSE(f.eval(code));
  // Each on-minterm is isolated (all neighbours are off): 4 full cubes.
  EXPECT_EQ(f.num_literals(), 12);
}

}  // namespace
}  // namespace sitm
