// End-to-end integration tests: STG text -> reachability -> synthesis ->
// technology mapping -> gate-level SI verification.

#include <gtest/gtest.h>

#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "netlist/si_verify.hpp"
#include "netlist/tech_decomp.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "stg/g_io.hpp"
#include "support/insertion_verifier.hpp"

namespace sitm {
namespace {

TEST(Integration, GFileToMappedNetlist) {
  // Full pipeline from .g text.
  const std::string g = R"(.model fork2
.inputs r
.outputs g0 g1 g2 d
.graph
r+ g0+ g1+ g2+
g0+ d+
g1+ d+
g2+ d+
d+ r-
r- g0- g1- g2-
g0- d-
g1- d-
g2- d-
d- r+
.marking { <d-,r+> }
.end
)";
  const Stg stg = read_g_string(g);
  const StateGraph sg = stg.to_state_graph();
  ASSERT_TRUE(check_implementability(sg));

  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(sg, opts);
  ASSERT_TRUE(result.implementable) << result.failure;
  const Netlist netlist = result.build_netlist();
  EXPECT_LE(netlist.max_gate_complexity(), 2);
  const SiVerifyResult verify = verify_speed_independence(netlist);
  EXPECT_TRUE(verify.ok) << verify.why;
}

TEST(Integration, SgRoundTripThroughText) {
  const auto entry = bench::suite_benchmark("hazard");
  const StateGraph sg = entry.stg.to_state_graph();
  const StateGraph back = read_sg_string(write_sg_string(sg, "hazard"));
  EXPECT_EQ(back.num_states(), sg.num_states());
  EXPECT_EQ(back.num_arcs(), sg.num_arcs());
  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(back, opts);
  EXPECT_TRUE(result.implementable) << result.failure;
}

TEST(Integration, SuiteMapsAtFourLiterals) {
  // Paper Table 1: at i=4 nearly everything is implementable.  Run a
  // representative subset end-to-end.
  MapperOptions opts;
  opts.library.max_literals = 4;
  for (const char* name : {"chu133", "half", "hazard", "vbe5b", "nowick",
                           "mp-forward-pkt", "trimos-send"}) {
    const auto entry = bench::suite_benchmark(name);
    const StateGraph sg = entry.stg.to_state_graph();
    const MapResult result = technology_map(sg, opts);
    EXPECT_TRUE(result.implementable) << name << ": " << result.failure;
    if (result.implementable) {
      const Netlist netlist = result.build_netlist();
      EXPECT_LE(netlist.max_gate_complexity(), 4) << name;
      const SiVerifyResult verify = verify_speed_independence(netlist);
      EXPECT_TRUE(verify.ok) << name << ": " << verify.why;
    }
  }
}

TEST(Integration, SiCostComparableToNonSi) {
  // The paper's headline cost claim: preserving SI costs little extra area
  // (roughly <= 10% counting a C element as a 3-input gate).  At suite
  // level we only assert the decomposed SI netlist exists and its literal
  // cost stays within a small factor of the non-SI tech_decomp baseline.
  MapperOptions opts;
  opts.library.max_literals = 2;
  const auto entry = bench::suite_benchmark("vbe5b");
  const StateGraph sg = entry.stg.to_state_graph();
  const Netlist original = synthesize_all(sg);
  const TechDecompResult non_si = tech_decomp2(original);

  const MapResult result = technology_map(sg, opts);
  ASSERT_TRUE(result.implementable) << result.failure;
  const Netlist mapped = result.build_netlist();
  const int si_literals = mapped.total_literals();
  EXPECT_LE(si_literals, 3 * std::max(1, non_si.literals));
}

TEST(Integration, MappedSgPreservesOriginalInterface) {
  const auto entry = bench::suite_benchmark("half");
  const StateGraph sg = entry.stg.to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(sg, opts);
  ASSERT_TRUE(result.implementable) << result.failure;
  // Original signals keep their names and kinds; added ones are internal.
  for (int s = 0; s < sg.num_signals(); ++s) {
    EXPECT_EQ(result.sg->signal(s).name, sg.signal(s).name);
    EXPECT_EQ(result.sg->signal(s).kind, sg.signal(s).kind);
  }
}

TEST(Integration, DecompositionStepsAreSoundInSequence) {
  // Re-play the recorded steps: each divisor must plan and verify on the
  // SG state it was applied to.
  const StateGraph sg0 = bench::suite_benchmark("vbe5b").stg.to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(sg0, opts);
  ASSERT_TRUE(result.implementable) << result.failure;

  StateGraph sg = sg0;
  sg.prune_unreachable();
  for (const auto& step : result.steps) {
    const auto plan =
        step.latch
            ? InsertionPlanner(sg).plan_latch(step.divisor, step.divisor_reset)
            : InsertionPlanner(sg).plan(step.divisor);
    ASSERT_TRUE(plan.has_value());
    StateGraph next = insert_signal(sg, *plan, step.new_signal);
    ASSERT_TRUE(InsertionVerifier(sg).verify(next, /*require_csc=*/true,
                                              ~DynBitset(sg.num_signals())));
    EXPECT_EQ(next.num_states(), step.states_after);
    sg = std::move(next);
  }
  EXPECT_EQ(sg.num_states(), result.sg->num_states());
}

}  // namespace
}  // namespace sitm
