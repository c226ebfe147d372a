// Unit tests for the util module: DynBitset, text helpers, RNG.

#include <gtest/gtest.h>

#include <set>

#include "util/dynbitset.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace sitm {
namespace {

/// The set's elements by first()/next(), ascending.
std::vector<std::size_t> elements(const DynBitset& b) {
  std::vector<std::size_t> out;
  for (std::size_t i = b.first(); i != DynBitset::npos; i = b.next(i))
    out.push_back(i);
  return out;
}

TEST(DynBitset, StartsEmpty) {
  DynBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(DynBitset, SetResetTest) {
  DynBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynBitset, SetAllRespectsSize) {
  DynBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  DynBitset c(64);
  c.set_all();
  EXPECT_EQ(c.count(), 64u);
}

TEST(DynBitset, ComplementRespectsTail) {
  DynBitset b(70);
  b.set(3);
  const DynBitset c = ~b;
  EXPECT_EQ(c.count(), 69u);
  EXPECT_FALSE(c.test(3));
  EXPECT_TRUE(c.test(69));
}

TEST(DynBitset, SetAlgebra) {
  DynBitset a(10), b(10);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_TRUE((a & b).test(2));
  EXPECT_EQ((a - b).count(), 1u);
  EXPECT_TRUE((a - b).test(1));
}

TEST(DynBitset, SubsetAndDisjoint) {
  DynBitset a(10), b(10);
  a.set(1);
  b.set(1);
  b.set(5);
  EXPECT_TRUE((a - b).none());  // a is a subset of b
  EXPECT_FALSE((b - a).none());
  EXPECT_FALSE(a.disjoint(b));
  DynBitset c(10);
  c.set(7);
  EXPECT_TRUE(a.disjoint(c));
}

TEST(DynBitset, FirstNextIteration) {
  DynBitset b(130);
  b.set(5);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.first(), 5u);
  EXPECT_EQ(b.next(5), 64u);
  EXPECT_EQ(b.next(64), 129u);
  EXPECT_EQ(b.next(129), DynBitset::npos);
  EXPECT_EQ(elements(b), (std::vector<std::size_t>{5, 64, 129}));
}

TEST(DynBitset, ForEachVisitsAscending) {
  DynBitset b(200);
  for (std::size_t i = 0; i < 200; i += 7) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, elements(b));
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(Text, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, SplitWs) {
  const auto tokens = split_ws("  a  bb\tccc ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Text, StartsWith) {
  EXPECT_TRUE(starts_with(".model x", ".model"));
  EXPECT_FALSE(starts_with(".mod", ".model"));
}

TEST(Text, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.range(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace sitm
