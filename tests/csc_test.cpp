// Tests for Complete State Coding resolution (core/csc).

#include <gtest/gtest.h>

#include "benchlib/generators.hpp"
#include "core/csc.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "netlist/si_verify.hpp"
#include "sg/properties.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

/// The classic CSC-violating ring: a+ b+ a- b- c+ d+ c- d- (all outputs).
/// After b- the code returns to 0000 but the enabled output differs (c+ vs
/// a+ initially).
Stg csc_ring() {
  Stg stg;
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const int c = stg.add_signal("c", SignalKind::kOutput);
  const int d = stg.add_signal("d", SignalKind::kOutput);
  const TransId ring[] = {
      stg.add_transition(a, true),  stg.add_transition(b, true),
      stg.add_transition(a, false), stg.add_transition(b, false),
      stg.add_transition(c, true),  stg.add_transition(d, true),
      stg.add_transition(c, false), stg.add_transition(d, false),
  };
  for (int i = 0; i < 7; ++i) stg.connect_tt(ring[i], ring[i + 1]);
  stg.mark_initial(stg.connect_tt(ring[7], ring[0]));
  return stg;
}

TEST(Csc, ConflictDetection) {
  const StateGraph sg = csc_ring().to_state_graph();
  EXPECT_FALSE(check_csc(sg));
  EXPECT_GT(count_csc_conflicts(sg), 0);
  // Valid specifications have zero conflicts.
  EXPECT_EQ(count_csc_conflicts(bench::make_hazard().to_state_graph()), 0);
}

TEST(Csc, ResolvesTheRing) {
  const StateGraph sg = csc_ring().to_state_graph();
  const CscResult result = resolve_csc(sg);
  ASSERT_TRUE(result.resolved) << result.failure;
  EXPECT_GE(result.signals_inserted, 1);
  EXPECT_TRUE(check_csc(*result.sg));
  EXPECT_TRUE(check_implementability(*result.sg));
  // The inserted signals are internal state signals.
  for (int s = sg.num_signals(); s < result.sg->num_signals(); ++s)
    EXPECT_EQ(result.sg->signal(s).kind, SignalKind::kInternal);
}

TEST(Csc, StepsRecordConflictReduction) {
  const StateGraph sg = csc_ring().to_state_graph();
  const CscResult result = resolve_csc(sg);
  ASSERT_TRUE(result.resolved);
  ASSERT_EQ(static_cast<int>(result.steps.size()), result.signals_inserted);
  for (const auto& step : result.steps)
    EXPECT_LT(step.conflicts_after, step.conflicts_before);
  EXPECT_EQ(result.steps.back().conflicts_after, 0);
}

TEST(Csc, ResolvedSpecMapsAndVerifies) {
  const StateGraph sg = csc_ring().to_state_graph();
  const CscResult csc = resolve_csc(sg);
  ASSERT_TRUE(csc.resolved) << csc.failure;

  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult mapped = technology_map(*csc.sg, opts);
  ASSERT_TRUE(mapped.implementable) << mapped.failure;
  const Netlist netlist = mapped.build_netlist();
  const SiVerifyResult verify = verify_speed_independence(netlist);
  EXPECT_TRUE(verify.ok) << verify.why;
}

TEST(Csc, AlreadySatisfiedIsNoop) {
  const StateGraph sg = bench::make_parallelizer(2).to_state_graph();
  const CscResult result = resolve_csc(sg);
  EXPECT_TRUE(result.resolved);
  EXPECT_EQ(result.signals_inserted, 0);
  EXPECT_EQ(result.sg->num_signals(), sg.num_signals());
}

TEST(Csc, InsertionLimitRespected) {
  const StateGraph sg = csc_ring().to_state_graph();
  CscOptions opts;
  opts.max_insertions = 0;
  const CscResult result = resolve_csc(sg, opts);
  EXPECT_FALSE(result.resolved);
  EXPECT_FALSE(result.failure.empty());
}

TEST(Csc, SixtyFourSignalGraphFailsTyped) {
  // 32 ring segments are 64 signals, the width of a state code: there is no
  // room for a state signal, so resolution must fail typed, not throw.
  const StateGraph sg = bench::make_csc_ring(32).to_state_graph();
  ASSERT_EQ(sg.num_signals(), 64);
  ASSERT_GT(count_csc_conflicts(sg), 0);
  CscResult result;
  ASSERT_NO_THROW(result = resolve_csc(sg));
  EXPECT_FALSE(result.resolved);
  EXPECT_EQ(result.failure,
            "no room for a state signal: the graph has 64 signals");
  EXPECT_EQ(result.signals_inserted, 0);
  EXPECT_EQ(result.candidates_scored, 0);

  // Through the flow the same spec ends at the csc stage as a spec failure.
  Spec spec;
  spec.name = "ring32";
  spec.format = SpecFormat::kSg;
  spec.sg = sg;
  Flow flow;
  const FlowReport report = flow.run_spec(std::move(spec));
  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.failed_stage.has_value());
  EXPECT_EQ(*report.failed_stage, Stage::kCsc);
  EXPECT_EQ(report.stage(Stage::kCsc).failure_kind, FailureKind::kSpec);
  EXPECT_NE(report.failure.find("no room for a state signal"),
            std::string::npos)
      << report.failure;
}

TEST(Csc, RejectsNonSpeedIndependentInput) {
  // Output choice (persistency violation) must be rejected up front.
  StateGraphBuilder builder;
  const int p = builder.add_signal("p", SignalKind::kOutput);
  const int q = builder.add_signal("q", SignalKind::kOutput);
  const StateId s0 = builder.add_state(0b00);
  const StateId s1 = builder.add_state(0b01);
  const StateId s2 = builder.add_state(0b10);
  builder.add_arc(s0, Event{p, true}, s1);
  builder.add_arc(s0, Event{q, true}, s2);
  builder.set_initial(s0);
  const StateGraph bad = std::move(builder).freeze();
  EXPECT_THROW(resolve_csc(bad), Error);
}

TEST(Csc, LongerRingNeedsMoreSignals) {
  // Three phases sharing the all-zero code: needs 2 state signals.
  Stg stg;
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const int c = stg.add_signal("c", SignalKind::kOutput);
  std::vector<TransId> ring;
  for (int sig : {a, b, c}) {
    ring.push_back(stg.add_transition(sig, true));
    ring.push_back(stg.add_transition(sig, false));
  }
  for (std::size_t i = 0; i + 1 < ring.size(); ++i)
    stg.connect_tt(ring[i], ring[i + 1]);
  stg.mark_initial(stg.connect_tt(ring.back(), ring[0]));

  const StateGraph sg = stg.to_state_graph();
  ASSERT_FALSE(check_csc(sg));
  const CscResult result = resolve_csc(sg);
  ASSERT_TRUE(result.resolved) << result.failure;
  EXPECT_GE(result.signals_inserted, 2);
  EXPECT_TRUE(check_implementability(*result.sg));
}

}  // namespace
}  // namespace sitm
