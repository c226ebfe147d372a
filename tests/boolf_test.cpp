// Unit tests for the cube/cover algebra and the two-level minimizer.

#include <gtest/gtest.h>

#include "boolf/cover.hpp"
#include "boolf/cube.hpp"
#include "boolf/minimize.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

const std::vector<std::string> kNames = {"a", "b", "c", "d", "e", "f"};

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

/// Does `f` hold on every assignment inside cube `c`?
bool covers(const Cover& f, const Cube& c) {
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << f.num_vars());
       ++code)
    if (c.contains_code(code) && !f.eval(code)) return false;
  return true;
}

TEST(Cube, Basics) {
  const Cube one = Cube::one();
  EXPECT_TRUE(one.is_one());
  EXPECT_EQ(one.num_literals(), 0);
  EXPECT_TRUE(one.contains_code(0b1010));

  const Cube ab = cube({{0, true}, {1, false}});  // a b'
  EXPECT_EQ(ab.num_literals(), 2);
  EXPECT_TRUE(ab.contains_code(0b001));   // a=1,b=0
  EXPECT_FALSE(ab.contains_code(0b011));  // b=1
  EXPECT_EQ(ab.to_string(kNames), "a b'");
}

TEST(Cube, MintermAndLiteral) {
  const Cube m = Cube::minterm(0b101, 3);
  EXPECT_EQ(m.num_literals(), 3);
  EXPECT_TRUE(m.contains_code(0b101));
  EXPECT_FALSE(m.contains_code(0b100));
  const Cube l = Cube::literal(2, false);
  EXPECT_TRUE(l.contains_code(0b011));
  EXPECT_FALSE(l.contains_code(0b100));
}

TEST(Cube, ContainmentIntersection) {
  const Cube a = cube({{0, true}});
  const Cube ab = cube({{0, true}, {1, true}});
  EXPECT_TRUE(a.contains(ab));
  EXPECT_FALSE(ab.contains(a));
  EXPECT_TRUE(a.intersects(ab));
  EXPECT_TRUE(ab.intersects(a));
  EXPECT_FALSE(ab.intersects(cube({{1, false}})));
  EXPECT_FALSE(cube({{1, true}}).intersects(cube({{1, false}})));
  EXPECT_EQ(a.meet(cube({{1, true}})), ab);
}

TEST(Cube, SupercubeDistance) {
  const Cube ab = cube({{0, true}, {1, true}});
  const Cube anb = cube({{0, true}, {1, false}});
  EXPECT_EQ(ab.supercube(anb), cube({{0, true}}));
  EXPECT_EQ(ab.distance(anb), 1);
  EXPECT_EQ(ab.distance(ab), 0);
}

TEST(Cover, EvalAndLiterals) {
  Cover f(3);
  f.add(cube({{0, true}, {1, true}}));   // ab
  f.add(cube({{2, false}}));             // c'
  EXPECT_EQ(f.num_literals(), 3);
  EXPECT_TRUE(f.eval(0b011));   // ab
  EXPECT_TRUE(f.eval(0b000));   // c'
  EXPECT_FALSE(f.eval(0b101));  // a, c
  EXPECT_EQ(f.to_string(kNames), "a b + c'");
}

TEST(Cover, ContainmentCleanup) {
  Cover f(3);
  f.add(cube({{0, true}}));
  f.add(cube({{0, true}, {1, true}}));  // contained
  f.add(cube({{0, true}}));             // duplicate
  f.make_minimal_wrt_containment();
  EXPECT_EQ(f.size(), 1u);
}

TEST(Cover, CoversCube) {
  Cover f(2);
  f.add(cube({{0, true}}));
  f.add(cube({{0, false}, {1, true}}));
  // f = a + a'b covers cube b, but not cube b'.
  EXPECT_TRUE(covers(f, cube({{1, true}})));
  EXPECT_FALSE(covers(f, cube({{1, false}})));
}

TEST(Cover, ComplementIsExact) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    const int n = 4;
    Cover f(n);
    const int terms = 1 + static_cast<int>(rng.below(4));
    for (int t = 0; t < terms; ++t) {
      Cube c = Cube::one();
      for (int v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r == 0) c = c.with_literal(v, false);
        if (r == 1) c = c.with_literal(v, true);
      }
      f.add(c);
    }
    const Cover fc = f.complement();
    for (std::uint64_t code = 0; code < (1u << n); ++code)
      EXPECT_NE(f.eval(code), fc.eval(code)) << "code " << code;
  }
}

TEST(Cover, EquivalenceUpToRepresentation) {
  Cover xor1(2), xor2(2);
  xor1.add(cube({{0, true}, {1, false}}));
  xor1.add(cube({{0, false}, {1, true}}));
  xor2.add(cube({{1, true}, {0, false}}));
  xor2.add(cube({{1, false}, {0, true}}));
  EXPECT_FALSE(xor1 == xor2);  // same function, cubes in another order
  EXPECT_TRUE(same_function(xor1, xor2));
  EXPECT_FALSE(same_function(xor1, Cover::one(2)));
}

TEST(Cover, Support) {
  Cover f(4);
  f.add(cube({{0, true}, {3, false}}));
  EXPECT_EQ(f.support(), 0b1001u);
}

// ---------------------------------------------------------------- minimize

TEST(Minimize, ExactCorner) {
  // on = {00}, off = {11}: a single cube a' (or b') suffices.
  const Cover f = minimize_onoff({0b00}, {0b11}, 2);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.num_literals(), 1);
  EXPECT_TRUE(f.eval(0b00));
  EXPECT_FALSE(f.eval(0b11));
}

TEST(Minimize, ConstantCases) {
  EXPECT_TRUE(minimize_onoff({}, {0b0}, 2).empty());
  const Cover one = minimize_onoff({0b0}, {}, 2);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.cubes()[0].is_one());
}

TEST(Minimize, ThrowsOnIntersection) {
  EXPECT_THROW(minimize_onoff({0b1}, {0b1}, 1), Error);
}

TEST(Minimize, XorNeedsTwoCubes) {
  const Cover f = minimize_onoff({0b01, 0b10}, {0b00, 0b11}, 2);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.num_literals(), 4);
}

TEST(Minimize, DontCaresReduceLiterals) {
  // on = {111}, off = {000}; everything else DC: a 1-literal cube works.
  const Cover f = minimize_onoff({0b111}, {0b000}, 3);
  EXPECT_EQ(f.num_literals(), 1);
}

TEST(Minimize, CoversExactlyOnAndAvoidsOff) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    const int n = 5;
    std::vector<std::uint64_t> on, off;
    for (std::uint64_t code = 0; code < (1u << n); ++code) {
      const auto r = rng.below(3);
      if (r == 0) on.push_back(code);
      if (r == 1) off.push_back(code);
    }
    if (on.empty() || off.empty()) continue;
    const Cover f = minimize_onoff(on, off, n);
    for (auto code : on) EXPECT_TRUE(f.eval(code));
    for (auto code : off) EXPECT_FALSE(f.eval(code));
  }
}

TEST(Minimize, IrredundantGreedyCoversAll) {
  const std::vector<std::uint64_t> on{0, 1, 2, 3};
  std::vector<Cube> cubes{
      cube({{0, false}}),            // covers 0, 2 (b free)
      cube({{0, true}}),             // covers 1, 3
      cube({{1, false}}),            // covers 0, 1
      cube({{1, true}}),             // covers 2, 3
  };
  const auto chosen = irredundant(cubes, on);
  EXPECT_LE(chosen.size(), 2u);
  Cover f(2, chosen);
  for (auto code : on) EXPECT_TRUE(f.eval(code));
}

TEST(Minimize, ExpandFindsPrime) {
  // off = {11}; minterm 00 expands to a' or b'.
  const Cube c = expand_minterm(0b00, {0b11}, 2, {0, 1});
  EXPECT_EQ(c.num_literals(), 1);
}

}  // namespace
}  // namespace sitm
