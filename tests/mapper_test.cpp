// Unit tests for the technology mapping loop (paper Section 3).

#include <gtest/gtest.h>

#include "benchlib/generators.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "netlist/si_verify.hpp"
#include "sg/properties.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

MapperOptions with_library(int max_literals) {
  MapperOptions opts;
  opts.library.max_literals = max_literals;
  return opts;
}

TEST(Mapper, AlreadyImplementableNeedsNoInsertion) {
  const StateGraph sg = bench::make_pipeline(2).to_state_graph();
  const MapResult result = technology_map(sg, with_library(4));
  EXPECT_TRUE(result.implementable);
  EXPECT_EQ(result.signals_inserted, 0);
}

TEST(Mapper, HazardMapsToTwoLiteralGates) {
  // Paper Figure 5: Sx = a'cd splits into two 2-input AND gates with one
  // inserted signal.
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  EXPECT_EQ(result.signals_inserted, 1);
  const Netlist netlist = result.build_netlist();
  EXPECT_LE(netlist.max_gate_complexity(), 2);
  EXPECT_TRUE(verify_speed_independence(netlist).ok);
}

TEST(Mapper, ParallelizerJoinDecomposes) {
  // A 4-way AND join must break into 2-input gates via inserted signals.
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  EXPECT_GE(result.signals_inserted, 1);
  const Netlist netlist = result.build_netlist();
  EXPECT_LE(netlist.max_gate_complexity(), 2);
  const SiVerifyResult verify = verify_speed_independence(netlist);
  EXPECT_TRUE(verify.ok) << verify.why;
}

TEST(Mapper, LargerLibraryNeedsFewerInsertions) {
  const StateGraph sg = bench::make_parallelizer(5).to_state_graph();
  const MapResult at2 = technology_map(sg, with_library(2));
  const MapResult at3 = technology_map(sg, with_library(3));
  const MapResult at4 = technology_map(sg, with_library(4));
  ASSERT_TRUE(at2.implementable) << at2.failure;
  ASSERT_TRUE(at3.implementable) << at3.failure;
  ASSERT_TRUE(at4.implementable) << at4.failure;
  EXPECT_GE(at2.signals_inserted, at3.signals_inserted);
  EXPECT_GE(at3.signals_inserted, at4.signals_inserted);
}

TEST(Mapper, FinalSgStaysImplementable) {
  const StateGraph sg = bench::make_combo(3, 2).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  if (result.implementable) {
    EXPECT_TRUE(check_implementability(*result.sg));
    for (const auto& synth : result.syntheses)
      EXPECT_LE(synth.complexity, 2);
  }
}

TEST(Mapper, StepsRecordProgress) {
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  ASSERT_EQ(static_cast<int>(result.steps.size()), result.signals_inserted);
  for (const auto& step : result.steps) {
    // Every committed step strictly improves the global cost tuple -- the
    // mapper's termination measure.
    EXPECT_TRUE(step.after < step.before);
    EXPECT_GE(step.states_after, step.states_before);
    EXPECT_FALSE(step.new_signal.empty());
  }
}

TEST(Mapper, InsertedSignalsAreInternal) {
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable) << result.failure;
  for (int s = sg.num_signals(); s < result.sg->num_signals(); ++s)
    EXPECT_EQ(result.sg->signal(s).kind, SignalKind::kInternal);
}

TEST(Mapper, RejectsNonImplementableInput) {
  // CSC violation: two states with the same code enable different outputs.
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kInput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const StateId s0 = builder.add_state(0b00);
  const StateId s1 = builder.add_state(0b01);
  const StateId s2 = builder.add_state(0b11);
  const StateId s3 = builder.add_state(0b10);
  const StateId s4 = builder.add_state(0b00);  // code clash with s0
  const StateId s5 = builder.add_state(0b10);
  builder.add_arc(s0, Event{a, true}, s1);
  builder.add_arc(s1, Event{b, true}, s2);
  builder.add_arc(s2, Event{a, false}, s3);
  builder.add_arc(s3, Event{b, false}, s4);
  builder.add_arc(s4, Event{b, true}, s5);  // b+ enabled at s4 but not s0
  builder.add_arc(s5, Event{b, false}, s0);
  builder.set_initial(s0);
  const StateGraph bad = std::move(builder).freeze();
  EXPECT_THROW(technology_map(bad, with_library(2)), Error);
}

TEST(Mapper, InsertionLimitProducesFailure) {
  MapperOptions opts = with_library(2);
  opts.max_insertions = 0;
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const MapResult result = technology_map(sg, opts);
  EXPECT_FALSE(result.implementable);
  EXPECT_FALSE(result.failure.empty());
}

TEST(Mapper, SixtyFourSignalGraphFailsTyped) {
  // 63 clients and the shared output are 64 signals, the width of a state
  // code; a's set cover ORs all 63 requests, far over the library.  There
  // is no room for a decomposition signal, so mapping must fail typed, not
  // write past a 64-signal code.
  const StateGraph sg = bench::make_choice_mixer(63).to_state_graph();
  ASSERT_EQ(sg.num_signals(), 64);
  MapResult result;
  ASSERT_NO_THROW(result = technology_map(sg, with_library(4)));
  EXPECT_FALSE(result.implementable);
  EXPECT_EQ(result.failure,
            "no room for a decomposition signal: the graph has 64 signals");
  EXPECT_EQ(result.signals_inserted, 0);
  EXPECT_EQ(result.candidates_planned, 0);
  EXPECT_EQ(result.graphs_materialized, 0);

  // Through the flow the same spec ends at the map stage as a spec failure.
  Spec spec;
  spec.name = "mixer63";
  spec.format = SpecFormat::kSg;
  spec.sg = sg;
  FlowOptions options;
  options.mapper.library.max_literals = 4;
  Flow flow(options);
  const FlowReport report = flow.run_spec(std::move(spec));
  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.failed_stage.has_value());
  EXPECT_EQ(*report.failed_stage, Stage::kMap);
  EXPECT_EQ(report.stage(Stage::kMap).failure_kind, FailureKind::kSpec);
  EXPECT_NE(report.failure.find("no room for a decomposition signal"),
            std::string::npos)
      << report.failure;
}

TEST(Mapper, LocalAcknowledgementIsWeaker) {
  // With global acknowledgement disabled the mapper solves no more (and
  // typically fewer) instances; on the same instance it never needs fewer
  // insertions.
  const StateGraph sg = bench::make_parallelizer(5).to_state_graph();
  MapperOptions local = with_library(2);
  local.global_acknowledgement = false;
  const MapResult global_r = technology_map(sg, with_library(2));
  const MapResult local_r = technology_map(sg, local);
  ASSERT_TRUE(global_r.implementable);
  if (local_r.implementable) {
    EXPECT_GE(local_r.signals_inserted, global_r.signals_inserted);
  }
}

TEST(Mapper, DivisorFunctionsRecorded) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const MapResult result = technology_map(sg, with_library(2));
  ASSERT_TRUE(result.implementable);
  ASSERT_FALSE(result.steps.empty());
  // The chosen divisor for Sx = a'cd must be one of the legal 2-literal
  // sub-cubes (a'c or cd -- a'd is illegal per Figure 1).
  const Cover& f = result.steps[0].divisor;
  EXPECT_EQ(f.num_literals(), 2);
  const int a = sg.find_signal("a");
  const int d = sg.find_signal("d");
  const bool is_ad = f.cubes()[0].has_literal(a) && f.cubes()[0].has_literal(d);
  EXPECT_FALSE(is_ad);
}

}  // namespace
}  // namespace sitm
