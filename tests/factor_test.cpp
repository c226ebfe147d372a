// Unit tests for factored forms (quick_factor).

#include <gtest/gtest.h>

#include <algorithm>

#include "mlogic/factor.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

const std::vector<std::string> kNames = {"a", "b", "c", "d", "e", "f", "g"};

Cube cube(std::initializer_list<std::pair<int, bool>> lits) {
  Cube c = Cube::one();
  for (auto [v, pol] : lits) c = c.with_literal(v, pol);
  return c;
}

int literals(const FactoredForm& form) {
  if (form.kind == FactoredForm::Kind::kLiteral) return 1;
  int n = 0;
  for (const auto& child : form.children) n += literals(*child);
  return n;
}

int factored_literals(const Cover& f) { return literals(*quick_factor(f)); }

/// The form's value on a full assignment.
bool eval(const FactoredForm& form, std::uint64_t code) {
  switch (form.kind) {
    case FactoredForm::Kind::kLiteral:
      return (((code >> form.var) & 1) != 0) == form.positive;
    case FactoredForm::Kind::kZero:
      return false;
    case FactoredForm::Kind::kOne:
      return true;
    case FactoredForm::Kind::kAnd:
      return std::all_of(form.children.begin(), form.children.end(),
                         [&](const auto& child) { return eval(*child, code); });
    case FactoredForm::Kind::kOr:
      return std::any_of(form.children.begin(), form.children.end(),
                         [&](const auto& child) { return eval(*child, code); });
  }
  return false;
}

TEST(Factor, Constants) {
  EXPECT_EQ(quick_factor(Cover::zero(3))->to_string(kNames), "0");
  EXPECT_EQ(quick_factor(Cover::one(3))->to_string(kNames), "1");
  EXPECT_EQ(factored_literals(Cover::zero(3)), 0);
}

TEST(Factor, SingleCube) {
  Cover f(3, {cube({{0, true}, {2, false}})});
  const auto form = quick_factor(f);
  EXPECT_EQ(literals(*form), 2);
  EXPECT_EQ(form->to_string(kNames), "a c'");
}

TEST(Factor, ClassicFourLiteralExample) {
  // ab + ac + db + dc = (a + d)(b + c): 8 SOP literals, 4 factored.
  Cover f(4);
  f.add(cube({{0, true}, {1, true}}));
  f.add(cube({{0, true}, {2, true}}));
  f.add(cube({{3, true}, {1, true}}));
  f.add(cube({{3, true}, {2, true}}));
  EXPECT_EQ(f.num_literals(), 8);
  EXPECT_EQ(factored_literals(f), 4);
}

TEST(Factor, CommonCubeExtraction) {
  // abc + abd = ab(c + d)
  Cover f(4);
  f.add(cube({{0, true}, {1, true}, {2, true}}));
  f.add(cube({{0, true}, {1, true}, {3, true}}));
  EXPECT_EQ(factored_literals(f), 4);
  EXPECT_EQ(quick_factor(f)->to_string(kNames), "a b (c + d)");
}

TEST(Factor, NeverWorseThanSop) {
  Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    const int n = 5;
    Cover f(n);
    const int terms = 1 + static_cast<int>(rng.below(5));
    for (int t = 0; t < terms; ++t) {
      Cube c = Cube::one();
      for (int v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r == 0) c = c.with_literal(v, false);
        if (r == 1) c = c.with_literal(v, true);
      }
      f.add(c);
    }
    f.make_minimal_wrt_containment();
    EXPECT_LE(factored_literals(f), f.num_literals());
  }
}

TEST(Factor, SemanticallyEquivalent) {
  Rng rng(123);
  for (int round = 0; round < 60; ++round) {
    const int n = 6;
    Cover f(n);
    const int terms = 1 + static_cast<int>(rng.below(5));
    for (int t = 0; t < terms; ++t) {
      Cube c = Cube::one();
      for (int v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r == 0) c = c.with_literal(v, false);
        if (r == 1) c = c.with_literal(v, true);
      }
      f.add(c);
    }
    const auto form = quick_factor(f);
    for (std::uint64_t code = 0; code < (1u << n); ++code)
      ASSERT_EQ(eval(*form, code), f.eval(code)) << "round " << round;
  }
}

TEST(Factor, DeepKernelStructure) {
  // (a+b+c)(d+e)f + g factors back to <= 7 literals.
  Cover f(7);
  for (int x : {0, 1, 2})
    for (int y : {3, 4})
      f.add(cube({{x, true}, {y, true}, {5, true}}));
  f.add(cube({{6, true}}));
  EXPECT_EQ(f.num_literals(), 19);
  EXPECT_LE(factored_literals(f), 7);
  // Still equivalent.
  const auto form = quick_factor(f);
  for (std::uint64_t code = 0; code < (1u << 7); ++code)
    ASSERT_EQ(eval(*form, code), f.eval(code));
}

}  // namespace
}  // namespace sitm
