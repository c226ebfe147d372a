// Unit tests for the STG (Petri net) substrate: token game, reachability,
// the .g format, and error detection.

#include <gtest/gtest.h>

#include "sg/properties.hpp"
#include "sg/state_graph.hpp"
#include "stg/g_io.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

/// Handshake STG: r+ -> a+ -> r- -> a- -> (r+).
Stg handshake_stg() {
  Stg stg;
  const int r = stg.add_signal("r", SignalKind::kInput);
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const TransId rp = stg.add_transition(r, true);
  const TransId ap = stg.add_transition(a, true);
  const TransId rm = stg.add_transition(r, false);
  const TransId am = stg.add_transition(a, false);
  stg.connect_tt(rp, ap);
  stg.connect_tt(ap, rm);
  stg.connect_tt(rm, am);
  stg.mark_initial(stg.connect_tt(am, rp));
  return stg;
}

TEST(Stg, HandshakeReachability) {
  const StateGraph sg = handshake_stg().to_state_graph();
  EXPECT_EQ(sg.num_states(), 4u);
  EXPECT_EQ(sg.num_arcs(), 4u);
  EXPECT_EQ(sg.code(sg.initial()), 0u);
  EXPECT_TRUE(check_implementability(sg));
}

TEST(Stg, InitialCodeInference) {
  // Same net but first transition of r is r- (r starts at 1).
  Stg stg;
  const int r = stg.add_signal("r", SignalKind::kInput);
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const TransId rm = stg.add_transition(r, false);
  const TransId ap = stg.add_transition(a, true);
  const TransId rp = stg.add_transition(r, true);
  const TransId am = stg.add_transition(a, false);
  stg.connect_tt(rm, ap);
  stg.connect_tt(ap, rp);
  stg.connect_tt(rp, am);
  stg.mark_initial(stg.connect_tt(am, rm));
  const StateGraph sg = stg.to_state_graph();
  EXPECT_EQ(sg.code(sg.initial()), 0b01u);  // r=1, a=0
}

TEST(Stg, ConcurrencyExpandsToDiamond) {
  // r+ forks b0+ and b1+; join at d+.
  Stg stg;
  const int r = stg.add_signal("r", SignalKind::kInput);
  const int b0 = stg.add_signal("b0", SignalKind::kOutput);
  const int b1 = stg.add_signal("b1", SignalKind::kOutput);
  const int d = stg.add_signal("d", SignalKind::kOutput);
  const TransId rp = stg.add_transition(r, true);
  const TransId b0p = stg.add_transition(b0, true);
  const TransId b1p = stg.add_transition(b1, true);
  const TransId dp = stg.add_transition(d, true);
  stg.connect_tt(rp, b0p);
  stg.connect_tt(rp, b1p);
  stg.connect_tt(b0p, dp);
  stg.connect_tt(b1p, dp);
  // close the cycle so every signal alternates
  const TransId rm = stg.add_transition(r, false);
  const TransId b0m = stg.add_transition(b0, false);
  const TransId b1m = stg.add_transition(b1, false);
  const TransId dm = stg.add_transition(d, false);
  stg.connect_tt(dp, rm);
  stg.connect_tt(rm, b0m);
  stg.connect_tt(rm, b1m);
  stg.connect_tt(b0m, dm);
  stg.connect_tt(b1m, dm);
  stg.mark_initial(stg.connect_tt(dm, rp));

  const StateGraph sg = stg.to_state_graph();
  // b0+/b1+ concurrent: 4 states in that phase; same falling: total
  // 1 (idle) + 1 (r=1) + 4-1 (diamond) + 1 (d=1) + 1 (r=0) + 3 = 10.
  EXPECT_TRUE(check_implementability(sg));
  EXPECT_FALSE(enumerate_diamonds(sg).empty());
}

TEST(Stg, NonOneSafeDetected) {
  Stg stg;
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const TransId ap = stg.add_transition(a, true);
  const TransId am = stg.add_transition(a, false);
  const PlaceId p = stg.add_place("p");
  stg.connect_tt(ap, am);
  stg.mark_initial(stg.connect_tt(am, ap));
  stg.connect_tp(ap, p);  // p accumulates tokens
  stg.mark_initial(p);
  EXPECT_THROW(stg.to_state_graph(), Error);
}

TEST(Stg, InconsistentLabelingDetected) {
  // a+ twice in a row.
  Stg stg;
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const TransId ap1 = stg.add_transition(a, true, 1);
  const TransId ap2 = stg.add_transition(a, true, 2);
  stg.connect_tt(ap1, ap2);
  stg.mark_initial(stg.connect_tt(ap2, ap1));
  EXPECT_THROW(stg.to_state_graph(), Error);
}

TEST(Stg, StateExplosionCapped) {
  // 12 concurrent toggles = 2^12+ states; cap at 100.
  Stg stg;
  std::vector<TransId> pluses;
  for (int i = 0; i < 12; ++i) {
    const int s = stg.add_signal("s" + std::to_string(i), SignalKind::kOutput);
    const TransId p = stg.add_transition(s, true);
    const TransId m = stg.add_transition(s, false);
    stg.connect_tt(p, m);
    stg.mark_initial(stg.connect_tt(m, p));
  }
  EXPECT_THROW(stg.to_state_graph(100), Error);
}

TEST(GIo, RoundTrip) {
  const Stg stg = handshake_stg();
  const std::string text = write_g_string(stg, "hs");
  std::string name;
  const Stg back = read_g_string(text, &name);
  EXPECT_EQ(name, "hs");
  EXPECT_EQ(back.num_signals(), 2);
  EXPECT_EQ(back.num_transitions(), 4u);
  const StateGraph sg = back.to_state_graph();
  EXPECT_EQ(sg.num_states(), 4u);
  EXPECT_TRUE(check_implementability(sg));
}

TEST(GIo, ParseClassicFormat) {
  const std::string text = R"(.model xyz
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
)";
  const Stg stg = read_g_string(text);
  EXPECT_EQ(stg.num_signals(), 2);
  const StateGraph sg = stg.to_state_graph();
  EXPECT_EQ(sg.num_states(), 4u);
  EXPECT_EQ(sg.code(sg.initial()), 0u);
}

TEST(GIo, ExplicitPlacesAndInstances) {
  const std::string text = R"(.model t
.inputs r0 r1
.outputs a
.graph
p0 r0+ r1+
r0+ a+/1
a+/1 r0-
r0- a-/1
a-/1 p0
r1+ a+/2
a+/2 r1-
r1- a-/2
a-/2 p0
.marking { p0 }
.end
)";
  const Stg stg = read_g_string(text);
  const StateGraph sg = stg.to_state_graph();
  EXPECT_TRUE(check_implementability(sg));
  // Choice between two clients: 1 idle + 3 new states per client (the
  // fourth transition returns to the idle marking).
  EXPECT_EQ(sg.num_states(), 7u);
}

TEST(GIo, DummyRejected) {
  EXPECT_THROW(
      read_g_string(".model t\n.dummy e\n.graph\ne e\n.marking{}\n.end\n"),
      Error);
}

TEST(GIo, UnknownSignalRejected) {
  EXPECT_THROW(read_g_string(
                   ".model t\n.inputs a\n.graph\nb+ a+\na+ b+\n.marking{}\n.end\n"),
               Error);
}

TEST(GIo, WriterEmitsExplicitPlacesForChoice) {
  // Round-trip a net with an explicit choice place.
  Stg stg;
  const int r0 = stg.add_signal("r0", SignalKind::kInput);
  const int r1 = stg.add_signal("r1", SignalKind::kInput);
  const PlaceId p = stg.add_place("idle");
  stg.mark_initial(p);
  const TransId r0p = stg.add_transition(r0, true);
  const TransId r1p = stg.add_transition(r1, true);
  const TransId r0m = stg.add_transition(r0, false);
  const TransId r1m = stg.add_transition(r1, false);
  stg.connect_pt(p, r0p);
  stg.connect_pt(p, r1p);
  stg.connect_tt(r0p, r0m);
  stg.connect_tt(r1p, r1m);
  stg.connect_tp(r0m, p);
  stg.connect_tp(r1m, p);

  const Stg back = read_g_string(write_g_string(stg));
  const StateGraph a = stg.to_state_graph();
  const StateGraph b = back.to_state_graph();
  EXPECT_EQ(a.num_states(), b.num_states());
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
}

}  // namespace
}  // namespace sitm
