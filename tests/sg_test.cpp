// Unit tests for the State Graph model: construction, property checks,
// regions, and the .sg text format.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sg/sg_io.hpp"
#include "sg/state_graph.hpp"
#include "support/sg_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

/// Two-signal handshake: r+ -> a+ -> r- -> a- -> (repeat).  r input, a
/// output.  Codes: 00 -> 10 -> 11 -> 01 -> 00.
StateGraphBuilder handshake_builder() {
  StateGraphBuilder sg;
  const int r = sg.add_signal("r", SignalKind::kInput);
  const int a = sg.add_signal("a", SignalKind::kOutput);
  const StateId s00 = sg.add_state(0b00);
  const StateId s10 = sg.add_state(0b01);  // r=1 (bit 0)
  const StateId s11 = sg.add_state(0b11);
  const StateId s01 = sg.add_state(0b10);  // a=1 (bit 1)
  sg.add_arc(s00, Event{r, true}, s10);
  sg.add_arc(s10, Event{a, true}, s11);
  sg.add_arc(s11, Event{r, false}, s01);
  sg.add_arc(s01, Event{a, false}, s00);
  sg.set_initial(s00);
  return sg;
}

StateGraph handshake() { return handshake_builder().freeze(); }

/// Trigger events of an excitation region: labels of the arcs entering it
/// from outside, each once, in the order they are met.
std::vector<Event> trigger_events(const StateGraph& sg, const Region& r) {
  std::vector<Event> triggers;
  r.er.for_each([&](std::size_t s) {
    for (const auto& p : sg.preds(static_cast<StateId>(s)))
      if (!r.er.test(static_cast<std::size_t>(p.target)) &&
          std::ranges::find(triggers, p.event) == triggers.end())
        triggers.push_back(p.event);
  });
  return triggers;
}

/// Concurrent diamond: from 00, a+ and b+ fire in any order to 11; then
/// both fall in any order back to 00 through intermediate states 11->01/10.
/// All signals are outputs (an autonomous circuit).
StateGraph diamond() {
  StateGraphBuilder sg;
  const int a = sg.add_signal("a", SignalKind::kOutput);
  const int b = sg.add_signal("b", SignalKind::kOutput);
  const StateId s00 = sg.add_state(0b00);
  const StateId s01 = sg.add_state(0b01);  // a=1
  const StateId s10 = sg.add_state(0b10);  // b=1
  const StateId s11 = sg.add_state(0b11);
  sg.add_arc(s00, Event{a, true}, s01);
  sg.add_arc(s00, Event{b, true}, s10);
  sg.add_arc(s01, Event{b, true}, s11);
  sg.add_arc(s10, Event{a, true}, s11);
  sg.set_initial(s00);
  return std::move(sg).freeze();
}

TEST(StateGraph, BasicQueries) {
  StateGraph sg = handshake();
  EXPECT_EQ(sg.num_signals(), 2);
  EXPECT_EQ(sg.num_states(), 4u);
  EXPECT_EQ(sg.num_arcs(), 4u);
  EXPECT_EQ(sg.find_signal("r"), 0);
  EXPECT_EQ(sg.find_signal("a"), 1);
  EXPECT_EQ(sg.find_signal("zz"), -1);
  EXPECT_EQ(sg.input_signals(), std::vector<int>{0});
  EXPECT_EQ(sg.noninput_signals(), std::vector<int>{1});
  EXPECT_TRUE(sg.enabled(0, Event{0, true}));
  EXPECT_FALSE(sg.enabled(0, Event{1, true}));
  EXPECT_EQ(sg.successor(0, Event{0, true}), 1);
  EXPECT_EQ(sg.successor(0, Event{1, true}), kNoState);
  EXPECT_EQ(sg.code_string(2), "11");
  EXPECT_EQ(sg.event_string(Event{1, false}), "a-");
}

TEST(StateGraph, DuplicateSignalThrows) {
  StateGraphBuilder sg;
  sg.add_signal("a", SignalKind::kInput);
  EXPECT_THROW(sg.add_signal("a", SignalKind::kOutput), Error);
}

TEST(StateGraph, ReachableAndPrune) {
  StateGraphBuilder builder = handshake_builder();
  builder.add_state(0b10);  // an orphan
  StateGraph sg = std::move(builder).freeze();
  EXPECT_EQ(sg.reachable().count(), 4u);
  EXPECT_EQ(sg.prune_unreachable(), 1u);
  EXPECT_EQ(sg.num_states(), 4u);
  EXPECT_TRUE(check_consistency(sg));
}

TEST(StateGraph, AllReachableFlagFollowsTheMutators) {
  StateGraphBuilder builder = handshake_builder();
  StateGraph sg = StateGraphBuilder(builder).freeze();
  EXPECT_FALSE(sg.all_reachable());
  sg.prune_unreachable();
  EXPECT_TRUE(sg.all_reachable());
  EXPECT_EQ(sg.reachable(), sg.full_set());

  // A fresh freeze does not know, even when nothing is stranded.
  const StateId orphan = builder.add_state(0b10);
  sg = StateGraphBuilder(builder).freeze();
  EXPECT_FALSE(sg.all_reachable());
  EXPECT_FALSE(sg.reachable().test(static_cast<std::size_t>(orphan)));
  EXPECT_EQ(sg.reachable().count(), 4u);

  // Moving the initial state strands the states only the old one reached.
  const StateId head = builder.add_state(0b01);
  builder.add_arc(head, Event{1, true}, 0);
  builder.set_initial(head);
  sg = StateGraphBuilder(builder).freeze();
  sg.prune_unreachable();
  EXPECT_EQ(sg.num_states(), 5u);
  EXPECT_TRUE(sg.all_reachable());
  builder.set_initial(0);
  sg = std::move(builder).freeze();
  EXPECT_FALSE(sg.all_reachable());
  EXPECT_EQ(sg.reachable().count(), 4u);

  EXPECT_TRUE(bench::make_random_stg(1).to_state_graph().all_reachable());
}

/// `sg.reachable()` against a fresh depth-first search of a copy whose flag
/// is cleared.
void expect_reachable_matches_search(const StateGraph& sg,
                                     const std::string& what) {
  const StateGraph searched = builder_of(sg).freeze();
  ASSERT_FALSE(searched.all_reachable()) << what;
  EXPECT_EQ(sg.reachable(), searched.reachable()) << what;
}

TEST(StateGraph, FlaggedReachableMatchesTheSearch) {
  for (const std::string& name : bench::suite_names()) {
    const StateGraph sg = bench::suite_benchmark(name).stg.to_state_graph();
    EXPECT_TRUE(sg.all_reachable()) << name;
    expect_reachable_matches_search(sg, name);
  }
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    expect_reachable_matches_search(
        bench::make_random_stg(seed).to_state_graph(), what);

    // A random graph with stranded states: the search before pruning
    // counts exactly the states the prune keeps.
    Rng rng(seed);
    StateGraphBuilder builder;
    const int a = builder.add_signal("a", SignalKind::kOutput);
    const int b = builder.add_signal("b", SignalKind::kOutput);
    const auto n = static_cast<StateId>(8 + rng.below(24));
    for (StateId s = 0; s < n; ++s) builder.add_state(rng.below(4));
    for (StateId s = 0; s < n; ++s)
      for (int k = 0; k < 2; ++k)
        if (rng.below(3) == 0)
          builder.add_arc(s, Event{rng.below(2) ? a : b, rng.below(2) == 0},
                          static_cast<StateId>(rng.below(n)));
    builder.set_initial(0);
    StateGraph sg = std::move(builder).freeze();
    const std::size_t found = sg.reachable().count();
    EXPECT_EQ(sg.num_states() - sg.prune_unreachable(), found) << what;
    EXPECT_TRUE(sg.all_reachable()) << what;
    expect_reachable_matches_search(sg, what);
  }
}

TEST(Properties, HandshakeIsImplementable) {
  const StateGraph sg = handshake();
  EXPECT_TRUE(check_consistency(sg));
  EXPECT_TRUE(check_determinism(sg));
  EXPECT_TRUE(check_commutativity(sg));
  EXPECT_TRUE(check_output_persistency(sg));
  EXPECT_TRUE(check_csc(sg));
  EXPECT_TRUE(check_usc(sg));
  EXPECT_TRUE(check_implementability(sg));
}

TEST(Properties, InconsistentArcDetected) {
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kOutput);
  const StateId s0 = builder.add_state(0);
  const StateId s1 = builder.add_state(0);  // a+ but code unchanged
  builder.add_arc(s0, Event{a, true}, s1);
  builder.set_initial(s0);
  const StateGraph sg = std::move(builder).freeze();
  EXPECT_FALSE(check_consistency(sg));
}

TEST(Properties, NondeterminismDetected) {
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kOutput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const StateId s0 = builder.add_state(0b00);
  const StateId s1 = builder.add_state(0b01);
  const StateId s2 = builder.add_state(0b01);
  (void)b;
  builder.add_arc(s0, Event{a, true}, s1);
  builder.add_arc(s0, Event{a, true}, s2);
  builder.set_initial(s0);
  const StateGraph sg = std::move(builder).freeze();
  EXPECT_FALSE(check_determinism(sg));
}

TEST(Properties, NonCommutativeDiamondDetected) {
  // a and b fire from 00 in both orders but join in different states.
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kOutput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const int c = builder.add_signal("c", SignalKind::kOutput);
  const StateId s000 = builder.add_state(0b000);
  const StateId s001 = builder.add_state(0b001);
  const StateId s010 = builder.add_state(0b010);
  const StateId s011a = builder.add_state(0b011);
  const StateId s011b = builder.add_state(0b111);  // c differs
  (void)c;
  builder.add_arc(s000, Event{a, true}, s001);
  builder.add_arc(s000, Event{b, true}, s010);
  builder.add_arc(s001, Event{b, true}, s011a);
  builder.add_arc(s010, Event{a, true}, s011b);
  builder.set_initial(s000);
  // s011b's code differs in c, so the joint state differs: commutativity
  // requires identical states, not just codes.
  const StateGraph sg = std::move(builder).freeze();
  EXPECT_FALSE(check_commutativity(sg));
}

TEST(Properties, PersistencyViolationDetected) {
  // b+ enabled at 00, disabled by a+ (no b+ from 01).
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kOutput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const StateId s00 = builder.add_state(0b00);
  const StateId s01 = builder.add_state(0b01);
  const StateId s10 = builder.add_state(0b10);
  builder.add_arc(s00, Event{a, true}, s01);
  builder.add_arc(s00, Event{b, true}, s10);
  builder.set_initial(s00);
  const StateGraph sg = std::move(builder).freeze();
  EXPECT_FALSE(check_output_persistency(sg));
  // Restricting the watch to signal a only: a+ is disabled by b+.
  EXPECT_FALSE(check_persistency(sg, {a}));
  // An empty watch list sees no violation.
  EXPECT_TRUE(check_persistency(sg, {}));
}

TEST(Properties, InputChoiceIsAllowed) {
  // The same shape is fine when a and b are inputs (environment choice).
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kInput);
  const int b = builder.add_signal("b", SignalKind::kInput);
  const StateId s00 = builder.add_state(0b00);
  const StateId s01 = builder.add_state(0b01);
  const StateId s10 = builder.add_state(0b10);
  builder.add_arc(s00, Event{a, true}, s01);
  builder.add_arc(s00, Event{b, true}, s10);
  builder.set_initial(s00);
  const StateGraph sg = std::move(builder).freeze();
  EXPECT_TRUE(check_output_persistency(sg));
}

TEST(Properties, CscConflictDetected) {
  // Two states with equal codes enabling different output events.
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kInput);
  const int b = builder.add_signal("b", SignalKind::kOutput);
  const StateId s0 = builder.add_state(0b00);
  const StateId s1 = builder.add_state(0b01);
  const StateId s2 = builder.add_state(0b11);
  const StateId s3 = builder.add_state(0b10);
  const StateId s4 = builder.add_state(0b00);  // same code as s0
  builder.add_arc(s0, Event{a, true}, s1);
  builder.add_arc(s1, Event{b, true}, s2);
  builder.add_arc(s2, Event{a, false}, s3);
  builder.add_arc(s3, Event{b, false}, s4);
  // s4 enables nothing; s0 enables only input a+ -- CSC holds (same output
  // events: none), USC fails.
  builder.set_initial(s0);
  const StateGraph sg = StateGraphBuilder(builder).freeze();
  EXPECT_TRUE(check_csc(sg));
  EXPECT_FALSE(check_usc(sg));

  // Now give s4 an output event not enabled in s0.
  const StateId s5 = builder.add_state(0b10);
  builder.add_arc(s4, Event{b, true}, s5);
  EXPECT_FALSE(check_csc(std::move(builder).freeze()));
}

TEST(Diamonds, EnumerationFindsTheDiamond) {
  const StateGraph sg = diamond();
  const auto diamonds = enumerate_diamonds(sg);
  ASSERT_EQ(diamonds.size(), 1u);
  EXPECT_EQ(diamonds[0].bottom, 0);
  EXPECT_EQ(diamonds[0].top, 3);
}

TEST(Regions, HandshakeRegions) {
  const StateGraph sg = handshake();
  const int a = 1;
  const auto rise = excitation_regions(sg, Event{a, true});
  ASSERT_EQ(rise.size(), 1u);
  EXPECT_EQ(rise[0].er.count(), 1u);
  EXPECT_TRUE(rise[0].er.test(1));  // state 10
  EXPECT_EQ(rise[0].sr.count(), 1u);
  EXPECT_TRUE(rise[0].sr.test(2));  // state 11
  // QR(a+): a stable at 1, reachable from SR: state 11 only (state 01 has
  // a- enabled... no: 01 has a=1? code 0b10 means a=1,r=0 and a- enabled, so
  // not stable).  Check:
  EXPECT_EQ(rise[0].qr.count(), 1u);
  EXPECT_TRUE(rise[0].qr.test(2));
  // Trigger of a+ is r+.
  EXPECT_EQ(trigger_events(sg, rise[0]), (std::vector<Event>{Event{0, true}}));
}

TEST(Regions, NextValue) {
  const StateGraph sg = handshake();
  // state 0 (00): a stable low -> next 0; state 1 (r=1): a+ enabled -> 1.
  EXPECT_FALSE(next_value(sg, 0, 1));
  EXPECT_TRUE(next_value(sg, 1, 1));
  EXPECT_TRUE(next_value(sg, 2, 1));   // stable high
  EXPECT_FALSE(next_value(sg, 3, 1));  // a- enabled
}

TEST(Regions, MultipleExcitationRegions) {
  // a+ has two separate regions in a 2-round handshake where rounds are
  // distinguished by a mode signal m.
  StateGraphBuilder builder;
  const int m = builder.add_signal("m", SignalKind::kInput);
  const int a = builder.add_signal("a", SignalKind::kOutput);
  // 00 -m+-> 01 -a+-> 11 -m--> 10 -a--> 00 ... one ER per m polarity:
  // second round: 00' unreachable; instead make: 10 -a-> ...
  const StateId s00 = builder.add_state(0b00);
  const StateId s01 = builder.add_state(0b01);
  const StateId s11 = builder.add_state(0b11);
  const StateId s10 = builder.add_state(0b10);
  builder.add_arc(s00, Event{m, true}, s01);
  builder.add_arc(s01, Event{a, true}, s11);
  builder.add_arc(s11, Event{m, false}, s10);
  builder.add_arc(s10, Event{a, false}, s00);
  builder.set_initial(s00);
  const StateGraph sg = std::move(builder).freeze();
  const auto rise = excitation_regions(sg, Event{a, true});
  ASSERT_EQ(rise.size(), 1u);

  const auto fall = excitation_regions(sg, Event{a, false});
  ASSERT_EQ(fall.size(), 1u);
  EXPECT_TRUE(fall[0].er.test(s10));
}

TEST(SgIo, RoundTrip) {
  const StateGraph sg = handshake();
  const std::string text = write_sg_string(sg, "hs");
  std::string name;
  const StateGraph back = read_sg_string(text, &name);
  EXPECT_EQ(name, "hs");
  EXPECT_EQ(back.num_signals(), sg.num_signals());
  EXPECT_EQ(back.num_states(), sg.num_states());
  EXPECT_EQ(back.num_arcs(), sg.num_arcs());
  EXPECT_EQ(back.code(back.initial()), sg.code(sg.initial()));
  EXPECT_TRUE(check_implementability(back));
}

TEST(SgIo, ParseExplicit) {
  const std::string text = R"(.model t
# a comment
.inputs r
.outputs a
.graph
s0 r+ s1
s1 a+ s2
s2 r- s3
s3 a- s0
.initial s0 00
.end
)";
  const StateGraph sg = read_sg_string(text);
  EXPECT_EQ(sg.num_states(), 4u);
  EXPECT_EQ(sg.code_string(sg.initial()), "00");
  EXPECT_TRUE(check_implementability(sg));
}

TEST(SgIo, RejectsBadCodePropagation) {
  const std::string text = R"(.model t
.outputs a b
.graph
s0 a+ s1
s1 b+ s0
.initial s0 00
.end
)";
  EXPECT_THROW(read_sg_string(text), Error);
}

TEST(SgIo, RejectsMissingInitial) {
  EXPECT_THROW(read_sg_string(".model t\n.outputs a\n.graph\ns0 a+ s1\n.end\n"),
               Error);
}

TEST(SgIo, ParseEventErrors) {
  const StateGraph sg = handshake();
  EXPECT_EQ(parse_event(sg.signals(), "r+"), (Event{0, true}));
  EXPECT_EQ(parse_event(sg.signals(), "a-"), (Event{1, false}));
  EXPECT_THROW(parse_event(sg.signals(), "zz+"), Error);
  EXPECT_THROW(parse_event(sg.signals(), "r"), Error);
}

}  // namespace
}  // namespace sitm
