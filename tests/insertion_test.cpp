// Unit tests for SIP-set computation and event insertion (paper Section 3.2),
// including the hazard.g legality results of Figure 1.

#include <gtest/gtest.h>

#include <set>

#include "benchlib/generators.hpp"
#include "core/insertion.hpp"
#include "sg/properties.hpp"
#include "stg/stg.hpp"
#include "support/insertion_oracle.hpp"
#include "support/insertion_verifier.hpp"

namespace sitm {
namespace {

Cover cube_cover(int num_vars,
                 std::initializer_list<std::pair<int, bool>> lits) {
  Cube c = Cube::one();
  for (auto [v, pol] : lits) c = c.with_literal(v, pol);
  return Cover(num_vars, {c});
}

class HazardInsertion : public ::testing::Test {
 protected:
  void SetUp() override {
    sg = bench::make_hazard().to_state_graph();
    a = sg.find_signal("a");
    c = sg.find_signal("c");
    d = sg.find_signal("d");
    x = sg.find_signal("x");
    ASSERT_TRUE(check_implementability(sg));
  }
  StateGraph sg;
  int a = -1, c = -1, d = -1, x = -1;
};

TEST_F(HazardInsertion, DivisorAdIsIllegal) {
  // Figure 1b: decomposing Sx = a'cd by f = a'd is illegal (the insertion
  // set intersects a state diamond illegally / delays input events).
  const Cover f = cube_cover(sg.num_signals(), {{a, false}, {d, true}});
  EXPECT_FALSE(InsertionPlanner(sg).plan(f).has_value());
  const ReferencePlan ref = reference_plan(sg, f);
  EXPECT_FALSE(ref.ok);
  EXPECT_EQ(ref.why,
            "ER(x+): input event a+ would leave the insertion block");
}

TEST_F(HazardInsertion, DivisorAcIsLegal) {
  const Cover f = cube_cover(sg.num_signals(), {{a, false}, {c, true}});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  const StateGraph next = insert_signal(sg, *plan, "s");
  EXPECT_TRUE(InsertionVerifier(sg).verify(next, /*require_csc=*/true,
                                           ~DynBitset(sg.num_signals())));
}

TEST_F(HazardInsertion, DivisorDcIsLegal) {
  const Cover f = cube_cover(sg.num_signals(), {{d, true}, {c, true}});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  const StateGraph next = insert_signal(sg, *plan, "s");
  EXPECT_TRUE(InsertionVerifier(sg).verify(next, /*require_csc=*/true,
                                           ~DynBitset(sg.num_signals())));
}

TEST_F(HazardInsertion, InsertedSignalBehavesAsDelayedDivisor) {
  const Cover f = cube_cover(sg.num_signals(), {{d, true}, {c, true}});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  const StateGraph next = insert_signal(sg, *plan, "s");
  const int s = next.find_signal("s");
  ASSERT_GE(s, 0);
  EXPECT_EQ(next.signal(s).kind, SignalKind::kInternal);
  // In every state where the new signal is stable, its value equals f
  // (x is a delayed copy of f; they differ only inside its ERs).
  for (StateId q = 0; q < static_cast<StateId>(next.num_states()); ++q) {
    const bool stable = !next.enabled(q, Event{s, true}) &&
                        !next.enabled(q, Event{s, false});
    if (!stable) continue;
    EXPECT_EQ(next.value(q, s), f.eval(next.code(q) & ((StateCode{1} << s) - 1)))
        << "state " << next.code_string(q);
  }
}

TEST_F(HazardInsertion, ErRiseContainsInputBorder) {
  const Cover f = cube_cover(sg.num_signals(), {{a, false}, {c, true}});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  // IB(f+): every state where f flips 0->1 must carry the pending rise.
  for (StateId u = 0; u < static_cast<StateId>(sg.num_states()); ++u) {
    for (const auto& edge : sg.succs(u)) {
      if (!plan->s1.test(u) && plan->s1.test(edge.target)) {
        EXPECT_TRUE(plan->er_rise.test(edge.target));
      }
      if (plan->s1.test(u) && !plan->s1.test(edge.target)) {
        EXPECT_TRUE(plan->er_fall.test(edge.target));
      }
    }
  }
}

TEST(Insertion, ConstantDivisorRejected) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  for (const Cover& f :
       {Cover::one(sg.num_signals()), Cover::zero(sg.num_signals())}) {
    EXPECT_FALSE(InsertionPlanner(sg).plan(f));
    const ReferencePlan ref = reference_plan(sg, f);
    EXPECT_FALSE(ref.ok);
    EXPECT_EQ(ref.why, "divisor function never changes value");
  }
}

TEST(Insertion, StateCountGrowsByRegions) {
  const StateGraph sg = bench::make_parallelizer(3).to_state_graph();
  const int g0 = sg.find_signal("g0");
  const int g1 = sg.find_signal("g1");
  const Cover f =
      cube_cover(sg.num_signals(), {{g0, true}, {g1, true}});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  const StateGraph next = insert_signal(sg, *plan, "y");
  EXPECT_EQ(next.num_states(),
            sg.num_states() + plan->er_rise.count() + plan->er_fall.count());
  EXPECT_TRUE(InsertionVerifier(sg).verify(next, /*require_csc=*/true,
                                           ~DynBitset(sg.num_signals())));
}

TEST(Insertion, InsertionPreservesProjection) {
  // Hiding the new signal must give back exactly the original behaviour:
  // every original arc is simulated and no new (original-signal) arcs exist.
  const StateGraph sg = bench::make_seq_chain(2).to_state_graph();
  const int o0 = sg.find_signal("o0");
  const int o1 = sg.find_signal("o1");
  const Cover f = cube_cover(sg.num_signals(), {{o0, true}, {o1, true}});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  const StateGraph next = insert_signal(sg, *plan, "y");
  ASSERT_TRUE(InsertionVerifier(sg).verify(next, /*require_csc=*/true,
                                           ~DynBitset(sg.num_signals())));

  const StateCode mask = (StateCode{1} << sg.num_signals()) - 1;
  // Count arcs per (projected code, event) in both graphs; sets must match.
  std::set<std::pair<StateCode, std::string>> before, after;
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    for (const auto& e : sg.succs(s))
      before.emplace(sg.code(s), sg.event_string(e.event));
  for (StateId s = 0; s < static_cast<StateId>(next.num_states()); ++s)
    for (const auto& e : next.succs(s))
      if (e.event.signal < sg.num_signals())
        after.emplace(next.code(s) & mask, next.event_string(e.event));
  EXPECT_EQ(before, after);
}

TEST(Insertion, VerifyCatchesBrokenGraph) {
  // A deliberately broken "after" graph (persistency violation) is caught.
  StateGraphBuilder builder;
  const int p = builder.add_signal("p", SignalKind::kOutput);
  const int q = builder.add_signal("q", SignalKind::kOutput);
  const StateId s00 = builder.add_state(0b00);
  const StateId s01 = builder.add_state(0b01);
  const StateId s11 = builder.add_state(0b11);
  const StateId s10 = builder.add_state(0b10);
  builder.add_arc(s00, Event{p, true}, s01);
  builder.add_arc(s01, Event{q, true}, s11);
  builder.add_arc(s11, Event{p, false}, s10);
  builder.add_arc(s10, Event{q, false}, s00);
  builder.set_initial(s00);
  const StateGraph before = StateGraphBuilder(builder).freeze();

  // Same signals; break persistency with a choice: a competing arc from
  // s00 that disables p+ (output choice).  q+ from s00 leads to s10 where
  // p+ is not enabled.
  builder.add_arc(s00, Event{q, true}, s10);
  const StateGraph after = std::move(builder).freeze();
  EXPECT_FALSE(InsertionVerifier(before).verify(
      after, /*require_csc=*/true, ~DynBitset(before.num_signals())));
}

TEST(StateLatchInsertion, InitialValueForcedToOneIsResolved) {
  // The initial state sits between the latch's set and reset regions, so
  // the cycle structure forces its initial value to 1.  The historical
  // planner only tried a provisional 0 and rejected the candidate as
  // "ambiguous"; it must retry with 1 and produce the plan.
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kOutput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const StateId s00 = builder.add_state(0b00);
  const StateId s10 = builder.add_state(0b01);  // a=1
  const StateId s11 = builder.add_state(0b11);
  const StateId s01 = builder.add_state(0b10);  // b=1
  builder.add_arc(s00, Event{a, true}, s10);
  builder.add_arc(s10, Event{b, true}, s11);
  builder.add_arc(s11, Event{a, false}, s01);
  builder.add_arc(s01, Event{b, false}, s00);
  builder.set_initial(s11);
  const StateGraph sg = std::move(builder).freeze();

  DynBitset set_states = sg.empty_set();    // SR(a+)
  set_states.set(s10);
  DynBitset reset_states = sg.empty_set();  // SR(a-)
  reset_states.set(s01);

  const auto plan =
      InsertionPlanner(sg).plan_state_latch(set_states, reset_states);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->initial_value);
  EXPECT_TRUE(plan->s1.test(s10));
  EXPECT_TRUE(plan->s1.test(s11));
  EXPECT_FALSE(plan->s1.test(s00));
  EXPECT_FALSE(plan->s1.test(s01));
  EXPECT_TRUE(plan->er_rise.test(s10));
  EXPECT_TRUE(plan->er_fall.test(s01));
}

TEST(StateLatchInsertion, TrulyAmbiguousValueStillRejected) {
  // Two forced states meet in one join: no initial value makes the
  // propagation consistent, so the retry must not mask real ambiguity.
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kOutput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const StateId s00 = builder.add_state(0b00);
  const StateId sa = builder.add_state(0b01);
  const StateId sb = builder.add_state(0b10);
  const StateId s11 = builder.add_state(0b11);
  builder.add_arc(s00, Event{a, true}, sa);
  builder.add_arc(s00, Event{b, true}, sb);
  builder.add_arc(sa, Event{b, true}, s11);
  builder.add_arc(sb, Event{a, true}, s11);
  builder.set_initial(s00);
  const StateGraph sg = std::move(builder).freeze();

  DynBitset set_states = sg.empty_set();
  set_states.set(sa);
  DynBitset reset_states = sg.empty_set();
  reset_states.set(sb);

  EXPECT_FALSE(InsertionPlanner(sg).plan_state_latch(set_states, reset_states));
  const ReferencePlan ref =
      reference_plan_state_latch(sg, set_states, reset_states);
  EXPECT_FALSE(ref.ok);
  EXPECT_EQ(ref.why, "latch value ambiguous (path-dependent)");
}

/// The 4-state ring a+ b+ a- b- over outputs a and b (a is code bit 0), plus
/// a third signal c that stays 0 on the ring; when `orphan` is set, one more
/// state with c = 1 that no arc reaches.  Starts at the ring state `start`.
struct Ring {
  StateGraph sg;
  StateId s00, s10, s11, s01;
  int a, b, c;
};

Ring make_ring(StateId Ring::*start, bool orphan) {
  StateGraphBuilder builder;
  Ring r;
  r.a = builder.add_signal("a", SignalKind::kOutput);
  r.b = builder.add_signal("b", SignalKind::kOutput);
  r.c = builder.add_signal("c", SignalKind::kOutput);
  r.s00 = builder.add_state(0b000);
  r.s10 = builder.add_state(0b001);
  r.s11 = builder.add_state(0b011);
  r.s01 = builder.add_state(0b010);
  if (orphan) builder.add_state(0b111);
  builder.add_arc(r.s00, Event{r.a, true}, r.s10);
  builder.add_arc(r.s10, Event{r.b, true}, r.s11);
  builder.add_arc(r.s11, Event{r.a, false}, r.s01);
  builder.add_arc(r.s01, Event{r.b, false}, r.s00);
  builder.set_initial(r.*start);
  r.sg = std::move(builder).freeze();
  return r;
}

TEST(LatchInsertion, InitialStateInNeitherSet) {
  // Set on a*b' (state 10) and reset on a'*b (state 01), starting at 11:
  // the covers leave the initial value open.  A cover latch is rejected;
  // the state latch on the same states retries with a provisional 1 and
  // plans (StateLatchInsertion.InitialValueForcedToOneIsResolved).
  const Ring r = make_ring(&Ring::s11, /*orphan=*/false);
  const Cover f_set = cube_cover(3, {{r.a, true}, {r.b, false}});
  const Cover f_reset = cube_cover(3, {{r.a, false}, {r.b, true}});
  DynBitset set_states = r.sg.empty_set();
  set_states.set(r.s10);
  DynBitset reset_states = r.sg.empty_set();
  reset_states.set(r.s01);

  // One planner answers both, in both orders: the two latch kinds share
  // the propagation memo, and a cover latch must not inherit the state
  // latch's provisional initial value from it.
  for (const bool cover_first : {true, false}) {
    InsertionPlanner planner(r.sg);
    if (cover_first) {
      EXPECT_FALSE(planner.plan_latch(f_set, f_reset));
    }
    const auto state = planner.plan_state_latch(set_states, reset_states);
    ASSERT_TRUE(state.has_value());
    EXPECT_TRUE(state->initial_value);
    EXPECT_FALSE(planner.plan_latch(f_set, f_reset));
  }

  const ReferencePlan ref_latch = reference_plan_latch(r.sg, f_set, f_reset);
  EXPECT_FALSE(ref_latch.ok);
  EXPECT_EQ(ref_latch.why, "latch value undefined in initial state");
  const ReferencePlan ref_state =
      reference_plan_state_latch(r.sg, set_states, reset_states);
  ASSERT_TRUE(ref_state.ok);
  EXPECT_TRUE(ref_state.initial_value);
}

TEST(LatchInsertion, OverlapOnAnUnreachableStateIsIgnored) {
  // f_set = a*b' + c and f_reset = a'*b + c overlap only where c = 1, on a
  // state no arc reaches.  The latch walk only judges reached states, so
  // the cover latch still plans, exactly as the oracle does.
  const Ring r = make_ring(&Ring::s10, /*orphan=*/true);
  ASSERT_EQ(r.sg.num_states(), 5u);
  Cover f_set = cube_cover(3, {{r.a, true}, {r.b, false}});
  f_set.add(Cube::literal(r.c, true));
  Cover f_reset = cube_cover(3, {{r.a, false}, {r.b, true}});
  f_reset.add(Cube::literal(r.c, true));

  const auto plan = InsertionPlanner(r.sg).plan_latch(f_set, f_reset);
  ASSERT_TRUE(plan.has_value());
  const ReferencePlan ref = reference_plan_latch(r.sg, f_set, f_reset);
  ASSERT_TRUE(ref.ok) << ref.why;
  EXPECT_EQ(plan->s1, ref.s1);
  EXPECT_EQ(plan->er_rise, ref.er_rise);
  EXPECT_EQ(plan->er_fall, ref.er_fall);
  EXPECT_EQ(plan->initial_value, ref.initial_value);
  EXPECT_TRUE(plan->s1.test(r.s10));
  EXPECT_TRUE(plan->s1.test(r.s11));
  EXPECT_FALSE(plan->s1.test(r.s01));
  EXPECT_FALSE(plan->s1.test(r.s00));
}

}  // namespace
}  // namespace sitm
