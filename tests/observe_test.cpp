// Tests for weak bisimulation / observational equivalence, including the
// key theorem-level property: accepted insertions preserve the observable
// behaviour of the specification.

#include <gtest/gtest.h>

#include "benchlib/generators.hpp"
#include "core/insertion.hpp"
#include "core/mapper.hpp"
#include "sg/sg_io.hpp"
#include "stg/stg.hpp"
#include "support/observe.hpp"
#include "support/insertion_verifier.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

StateGraph handshake() {
  return read_sg_string(R"(.model hs
.inputs r
.outputs a
.graph
s0 r+ s1
s1 a+ s2
s2 r- s3
s3 a- s0
.initial s0 00
.end
)");
}

TEST(Observe, IdenticalGraphsAreBisimilar) {
  const StateGraph sg = handshake();
  EXPECT_TRUE(weakly_bisimilar(sg, sg, {"r", "a"}));
  EXPECT_TRUE(observationally_equivalent(sg, sg));
}

TEST(Observe, DifferentProtocolsAreNot) {
  const StateGraph hs = handshake();
  // Same signals, but the ack is allowed to rise before the request.
  const StateGraph other = read_sg_string(R"(.model o
.inputs r
.outputs a
.graph
s0 a+ s1
s1 r+ s2
s2 a- s3
s3 r- s0
.initial s0 00
.end
)");
  EXPECT_FALSE(weakly_bisimilar(hs, other, {"r", "a"}));
}

TEST(Observe, HidingMakesTauMoves) {
  // A 2-stage sequencer observed only at the ends looks like a handshake.
  const StateGraph chain = bench::make_seq_chain(1).to_state_graph();
  // chain: r+ -> o0+ -> a+ -> r- -> o0- -> a-.  Hide o0: r+ => a+ => ...
  const StateGraph hs = read_sg_string(R"(.model hs2
.inputs r
.outputs a
.graph
s0 r+ s1
s1 a+ s2
s2 r- s3
s3 a- s0
.initial s0 00
.end
)");
  EXPECT_TRUE(weakly_bisimilar(chain, hs, {"r", "a"}));
  // Observed fully, they differ.
  EXPECT_THROW(weakly_bisimilar(chain, hs, {"r", "o0", "a"}), Error);
}

TEST(Observe, MissingSignalThrows) {
  const StateGraph sg = handshake();
  EXPECT_THROW(weakly_bisimilar(sg, sg, {"zz"}), Error);
}

TEST(Observe, InsertionPreservesObservableBehaviour) {
  // Every legal insertion is a pure refinement: hiding the new signal gives
  // back the original behaviour.
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const int c = sg.find_signal("c");
  const int d = sg.find_signal("d");
  const Cover f(sg.num_signals(),
                {Cube::literal(d, true).with_literal(c, true)});
  const auto plan = InsertionPlanner(sg).plan(f);
  ASSERT_TRUE(plan.has_value());
  const StateGraph next = insert_signal(sg, *plan, "u");
  ASSERT_TRUE(InsertionVerifier(sg).verify(next, /*require_csc=*/true,
                                            ~DynBitset(sg.num_signals())));
  EXPECT_TRUE(observationally_equivalent(sg, next));
}

TEST(Observe, FullMappingPreservesObservableBehaviour) {
  for (const Stg& stg : {bench::make_hazard(), bench::make_parallelizer(3),
                         bench::make_combo(2, 2)}) {
    StateGraph sg = stg.to_state_graph();
    sg.prune_unreachable();
    MapperOptions opts;
    opts.library.max_literals = 2;
    const MapResult result = technology_map(sg, opts);
    ASSERT_TRUE(result.implementable) << result.failure;
    const auto equal = observationally_equivalent(sg, *result.sg);
    EXPECT_TRUE(equal.equivalent) << equal.why;
  }
}

TEST(Observe, DetectsDroppedBehaviour) {
  // Removing an arc (forbidding one interleaving) breaks equivalence.
  const StateGraph sg = bench::make_parallelizer(2).to_state_graph();
  StateGraphBuilder builder;
  for (const auto& sig : sg.signals()) builder.add_signal(sig.name, sig.kind);
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    builder.add_state(sg.code(s));
  bool dropped = false;
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    for (const auto& e : sg.succs(s)) {
      // Drop the first g1+ arc encountered (one diamond branch).
      if (!dropped && sg.signal(e.event.signal).name == "g1" &&
          e.event.rising) {
        dropped = true;
        continue;
      }
      builder.add_arc(s, e.event, e.target);
    }
  }
  builder.set_initial(sg.initial());
  StateGraph pruned = std::move(builder).freeze();
  pruned.prune_unreachable();
  ASSERT_TRUE(dropped);
  std::vector<std::string> visible;
  for (const auto& sig : sg.signals()) visible.push_back(sig.name);
  EXPECT_FALSE(weakly_bisimilar(sg, pruned, visible));
}

}  // namespace
}  // namespace sitm
