// Unit tests for the ROBDD package of the symbolic test oracle
// (support/bdd.hpp): every operator against its truth table
// (eval), plus a cross-check against the explicit cover algebra.

#include <gtest/gtest.h>

#include <vector>

#include "boolf/cover.hpp"
#include "support/bdd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

TEST(Bdd, Constants) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_false()), mgr.bdd_true());
  EXPECT_EQ(mgr.bdd_and(mgr.bdd_true(), mgr.bdd_false()), mgr.bdd_false());
  EXPECT_EQ(mgr.bdd_or(mgr.bdd_true(), mgr.bdd_false()), mgr.bdd_true());
}

TEST(Bdd, LiteralEval) {
  BddManager mgr(3);
  const BddRef a = mgr.literal(0);
  const BddRef nb = mgr.literal(1, false);
  EXPECT_TRUE(mgr.eval(a, 0b001));
  EXPECT_FALSE(mgr.eval(a, 0b110));
  EXPECT_TRUE(mgr.eval(nb, 0b001));
  EXPECT_FALSE(mgr.eval(nb, 0b010));
}

TEST(Bdd, Canonicity) {
  BddManager mgr(4);
  const BddRef a = mgr.literal(0), b = mgr.literal(1);
  // (a & b) | (b & a) built two ways yields the same node.
  EXPECT_EQ(mgr.bdd_and(a, b), mgr.bdd_and(b, a));
  const BddRef f = mgr.bdd_or(mgr.bdd_and(a, b), mgr.bdd_not(mgr.bdd_or(
                                                     mgr.bdd_not(a), mgr.bdd_not(b))));
  EXPECT_EQ(f, mgr.bdd_and(a, b));
  // Idempotence / double negation.
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(f)), f);
}

TEST(Bdd, OperatorsMatchTruthTables) {
  // Every operator, probed with eval on all 2^3 assignments of a pool of
  // functions that includes the constants, literals and their mixes.
  BddManager mgr(3);
  std::vector<BddRef> pool = {mgr.bdd_false(), mgr.bdd_true()};
  for (int v = 0; v < 3; ++v) {
    pool.push_back(mgr.literal(v));
    pool.push_back(mgr.literal(v, false));
  }
  pool.push_back(mgr.bdd_or(mgr.bdd_and(pool[2], pool[4]), pool[7]));
  pool.push_back(mgr.ite(pool[2], pool[5], pool[4]));  // x0 ? !x1 : x1
  for (const BddRef f : pool)
    for (const BddRef g : pool)
      for (const BddRef h : pool) {
        const BddRef i = mgr.ite(f, g, h);
        const BddRef a = mgr.bdd_and(f, g);
        const BddRef o = mgr.bdd_or(f, g);
        const BddRef n = mgr.bdd_not(f);
        for (std::uint64_t x = 0; x < 8; ++x) {
          const bool fx = mgr.eval(f, x), gx = mgr.eval(g, x);
          EXPECT_EQ(mgr.eval(i, x), fx ? gx : mgr.eval(h, x));
          EXPECT_EQ(mgr.eval(a, x), fx && gx);
          EXPECT_EQ(mgr.eval(o, x), fx || gx);
          EXPECT_EQ(mgr.eval(n, x), !fx);
        }
      }
}

TEST(Bdd, PickOne) {
  BddManager mgr(3);
  const BddRef f = mgr.bdd_and(mgr.literal(0), mgr.literal(2, false));
  std::uint64_t assignment = 0;
  ASSERT_TRUE(mgr.pick_one(f, &assignment));
  EXPECT_TRUE(mgr.eval(f, assignment));
  EXPECT_FALSE(mgr.pick_one(mgr.bdd_false(), &assignment));
}

TEST(Bdd, DagSize) {
  BddManager mgr(2);
  EXPECT_EQ(mgr.dag_size(mgr.bdd_true()), 1u);
  // x0 ? !x1 : x1 (exclusive or): the x0 node, two x1 nodes, T and F.
  const BddRef x =
      mgr.ite(mgr.literal(0), mgr.literal(1, false), mgr.literal(1));
  EXPECT_EQ(mgr.dag_size(x), 5u);
}

TEST(Bdd, AgreesWithCoverComplement) {
  // Random SOPs built side by side as a Cover and as a BDD; the BDD and its
  // negation must match the cover and the cover complement on every code.
  Rng rng(23);
  BddManager mgr(4);
  for (int round = 0; round < 30; ++round) {
    Cover f(4);
    BddRef ref = mgr.bdd_false();
    for (int t = 0; t < 3; ++t) {
      Cube c = Cube::one();
      BddRef product = mgr.bdd_true();
      for (int v = 0; v < 4; ++v) {
        const auto r = rng.below(3);
        if (r == 2) continue;
        c = c.with_literal(v, r == 1);
        product = mgr.bdd_and(mgr.literal(v, r == 1), product);
      }
      f.add(c);
      ref = mgr.bdd_or(ref, product);
    }
    const BddRef nf = mgr.bdd_not(ref);
    const Cover fc = f.complement();
    for (std::uint64_t code = 0; code < 16; ++code) {
      EXPECT_EQ(mgr.eval(ref, code), f.eval(code));
      EXPECT_EQ(mgr.eval(nf, code), fc.eval(code));
    }
  }
}

TEST(Bdd, BadVarThrows) {
  BddManager mgr(2);
  EXPECT_THROW(mgr.literal(2), Error);
  EXPECT_THROW(mgr.literal(-1), Error);
  EXPECT_THROW(BddManager(65), Error);
}

TEST(Bdd, SharingKeepsNodeCountLinear) {
  // sum-of-independent-products a0&a1 | a2&a3 | ... has linear BDD size.
  BddManager mgr(12);
  BddRef f = mgr.bdd_false();
  for (int i = 0; i < 12; i += 2)
    f = mgr.bdd_or(f, mgr.bdd_and(mgr.literal(i), mgr.literal(i + 1)));
  EXPECT_LT(mgr.dag_size(f), 24u);
}

}  // namespace
}  // namespace sitm
