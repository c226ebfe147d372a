// Tests for the SG-code -> BDD encoding the symbolic equivalence oracle
// runs on (encode_states in support/bdd_equiv.hpp).

#include <gtest/gtest.h>

#include "benchlib/generators.hpp"
#include "stg/stg.hpp"
#include "support/bdd_equiv.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

TEST(Encode, CodesRoundTrip) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  BddManager mgr(sg.num_signals());
  const DynBitset all = sg.reachable();
  const BddRef codes = encode_states(mgr, sg, all);
  // Every reachable code satisfies the BDD; a known-unreachable one doesn't.
  all.for_each([&](std::size_t s) {
    EXPECT_TRUE(mgr.eval(codes, sg.code(static_cast<StateId>(s))));
  });
  // hazard has 11 states over 4 signals: some code is unreachable.
  int unreachable_checked = 0;
  for (StateCode c = 0; c < 16; ++c) {
    bool reachable_code = false;
    all.for_each([&](std::size_t s) {
      if (sg.code(static_cast<StateId>(s)) == c) reachable_code = true;
    });
    if (!reachable_code) {
      EXPECT_FALSE(mgr.eval(codes, c));
      ++unreachable_checked;
    }
  }
  EXPECT_GT(unreachable_checked, 0);
}

TEST(Encode, TooSmallManagerThrows) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  BddManager mgr(2);
  EXPECT_THROW(encode_states(mgr, sg, sg.reachable()), Error);
}

}  // namespace
}  // namespace sitm
