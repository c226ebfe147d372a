// Unit tests for algebraic division, kernel extraction and divisor
// generation.

#include <gtest/gtest.h>

#include <algorithm>

#include "mlogic/division.hpp"
#include "mlogic/divisors.hpp"

namespace sitm {
namespace {

// Covers in this file use up to 7 variables (DeeperKernels goes to g);
// Cube::to_string indexes this table by variable, so it must cover them all
// (one short and the render reads past the end — caught by the ASan job).
const std::vector<std::string> kNames = {"a", "b", "c", "d", "e", "f", "g"};

Cube cube(std::initializer_list<std::pair<int, bool>> lits) {
  Cube c = Cube::one();
  for (auto [v, pol] : lits) c = c.with_literal(v, pol);
  return c;
}

/// Do `a` and `b` agree on every assignment of their variables?
bool same_function(const Cover& a, const Cover& b) {
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << a.num_vars());
       ++code)
    if (a.eval(code) != b.eval(code)) return false;
  return true;
}

/// ab + ac + def  (paper Example 2 with d e f = vars 3 4 5)
Cover example2() {
  Cover f(6);
  f.add(cube({{0, true}, {1, true}}));
  f.add(cube({{0, true}, {2, true}}));
  f.add(cube({{3, true}, {4, true}, {5, true}}));
  return f;
}

TEST(Division, CubeDivision) {
  const Cover f = example2();
  const Division d = cube_division(f, cube({{0, true}}));
  // f / a = b + c, remainder def
  EXPECT_EQ(d.quotient.size(), 2u);
  EXPECT_EQ(d.remainder.size(), 1u);
  EXPECT_EQ(d.quotient.to_string(kNames), "b + c");
}

TEST(Division, NonDivisorGivesEmptyQuotient) {
  const Cover f = example2();
  const Division d = cube_division(f, cube({{0, false}}));  // a'
  EXPECT_TRUE(d.quotient.empty());
  EXPECT_EQ(d.remainder.size(), 3u);
}

TEST(Division, MultiCubeDivision) {
  const Cover f = example2();
  Cover bc(6);
  bc.add(cube({{1, true}}));
  bc.add(cube({{2, true}}));
  const Division d = algebraic_division(f, bc);
  // f / (b+c) = a, remainder def
  ASSERT_EQ(d.quotient.size(), 1u);
  EXPECT_EQ(d.quotient.cubes()[0], cube({{0, true}}));
  ASSERT_EQ(d.remainder.size(), 1u);
  EXPECT_EQ(d.remainder.cubes()[0], cube({{3, true}, {4, true}, {5, true}}));
}

TEST(Division, QuotientTimesDivisorPlusRemainderCoversF) {
  const Cover f = example2();
  Cover bc(6);
  bc.add(cube({{1, true}}));
  bc.add(cube({{2, true}}));
  const Division d = algebraic_division(f, bc);
  for (std::uint64_t code = 0; code < 64; ++code)
    EXPECT_EQ((d.quotient.eval(code) && bc.eval(code)) ||
                  d.remainder.eval(code),
              f.eval(code))
        << "code " << code;
}

TEST(Division, CommonCube) {
  Cover f(4);
  f.add(cube({{0, true}, {1, true}, {2, true}}));
  f.add(cube({{0, true}, {1, true}, {3, false}}));
  EXPECT_EQ(common_cube(f), cube({{0, true}, {1, true}}));
  EXPECT_FALSE(cube_free(f));
  EXPECT_TRUE(cube_free(example2()));
}

TEST(Kernels, Example2Kernels) {
  const auto kernels = all_kernels(example2());
  // The only non-trivial kernel of ab+ac+def is (b+c) with co-kernel a
  // (plus the cover itself, which is cube-free).
  bool found_bc = false, found_self = false;
  for (const auto& k : kernels) {
    if (k.kernel.to_string(kNames) == "b + c") {
      found_bc = true;
      EXPECT_EQ(k.cokernel, cube({{0, true}}));
    }
    if (k.kernel.size() == 3) found_self = true;
  }
  EXPECT_TRUE(found_bc);
  EXPECT_TRUE(found_self);
}

TEST(Kernels, SingleCubeHasNoKernels) {
  Cover f(3);
  f.add(cube({{0, true}, {1, true}, {2, true}}));
  EXPECT_TRUE(all_kernels(f).empty());
}

TEST(Kernels, DeeperKernels) {
  // f = adf + aef + bdf + bef + cdf + cef + g  (classic example from the
  // multilevel synthesis literature: kernels include a+b+c, d+e, and f*(...)
  // variants).  Use 7 vars: a..g = 0..6.
  Cover f(7);
  for (int x : {0, 1, 2})
    for (int y : {3, 4})
      f.add(cube({{x, true}, {y, true}, {5, true}}));
  f.add(cube({{6, true}}));
  const auto kernels = all_kernels(f);
  bool found_abc = false, found_de = false;
  for (const auto& k : kernels) {
    std::string s = k.kernel.to_string(kNames);
    if (s == "a + b + c") found_abc = true;
    if (s == "d + e") found_de = true;
  }
  EXPECT_TRUE(found_abc);
  EXPECT_TRUE(found_de);
}

TEST(Divisors, PaperExample2Candidates) {
  const auto divisors = generate_divisors(example2());
  auto has = [&](const std::string& s) {
    return std::any_of(divisors.begin(), divisors.end(), [&](const Cover& d) {
      return d.to_string(kNames) == s;
    });
  };
  // Paper Example 2: kernel b+c, OR-subsets ab, ac, def, ab+ac, ab+def,
  // ac+def, AND-subsets de, df, ef.
  EXPECT_TRUE(has("b + c"));
  EXPECT_TRUE(has("a b"));
  EXPECT_TRUE(has("a c"));
  EXPECT_TRUE(has("d e f"));
  EXPECT_TRUE(has("a b + a c"));
  EXPECT_TRUE(has("a b + d e f"));
  EXPECT_TRUE(has("a c + d e f"));
  EXPECT_TRUE(has("d e"));
  EXPECT_TRUE(has("d f"));
  EXPECT_TRUE(has("e f"));
}

TEST(Divisors, SingleCubeAndSubsets) {
  // Paper hazard.g: a'dc decomposes into a'd, a'c, dc.
  Cover f(3);
  f.add(cube({{0, false}, {1, true}, {2, true}}));
  const auto divisors = generate_divisors(f);
  auto has = [&](const std::string& s) {
    return std::any_of(divisors.begin(), divisors.end(), [&](const Cover& d) {
      return d.to_string(kNames) == s;
    });
  };
  EXPECT_TRUE(has("a' b"));
  EXPECT_TRUE(has("a' c"));
  EXPECT_TRUE(has("b c"));
  EXPECT_EQ(divisors.size(), 3u);
}

TEST(Divisors, NoTrivialCandidates) {
  const auto divisors = generate_divisors(example2());
  for (const auto& d : divisors) {
    EXPECT_GE(d.num_literals(), 2);
    EXPECT_FALSE(same_function(d, example2()));
  }
}

TEST(Divisors, TwoLiteralCubeYieldsNothing) {
  Cover f(2);
  f.add(cube({{0, true}, {1, true}}));
  EXPECT_TRUE(generate_divisors(f).empty());
}

TEST(Divisors, CandidateCapRespected) {
  // Every pair of 8 variables: 28 single cubes and 378 pairs of them as
  // candidates, cut to the cap of 128.
  Cover f(8);
  for (int v = 0; v < 8; ++v)
    for (int w = v + 1; w < 8; ++w)
      f.add(cube({{v, true}, {w, true}}));
  EXPECT_EQ(generate_divisors(f).size(), 128u);
}

}  // namespace
}  // namespace sitm
