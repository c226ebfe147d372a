// Unit tests for monotonous cover synthesis (MC conditions 1-3, complete
// covers, and the combinational-vs-standard-C architecture choice), and the
// soundness of cover_lower_bounds: no synthesis of any signal costs less
// than its bound, under every architecture, on the corpus, on each SG
// revision the mapper commits, and on random specs.

#include <gtest/gtest.h>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "flow/flow.hpp"
#include "util/error.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "stg/stg.hpp"

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

/// Checks MC conditions semantically for a computed event cover.
void expect_mc_conditions(const StateGraph& sg, const EventCover& ec) {
  const DynBitset er = union_er(sg, ec.regions);
  const DynBitset qr = union_qr(sg, ec.regions);
  const DynBitset reachable = sg.reachable();

  // Condition 1: covers every ER state.
  er.for_each([&](std::size_t s) {
    EXPECT_TRUE(ec.cover.eval(sg.code(static_cast<StateId>(s))))
        << "ER state " << sg.code_string(static_cast<StateId>(s))
        << " not covered for " << sg.event_string(ec.event);
  });
  // Condition 2: zero outside ER u QR.
  reachable.for_each([&](std::size_t s) {
    if (er.test(s) || qr.test(s)) return;
    EXPECT_FALSE(ec.cover.eval(sg.code(static_cast<StateId>(s))))
        << "state " << sg.code_string(static_cast<StateId>(s))
        << " wrongly covered for " << sg.event_string(ec.event);
  });
  // Condition 3: no 0->1 change within ERj u QRj.
  for (const auto& region : ec.regions) {
    const DynBitset zone = region.er | region.qr;
    zone.for_each([&](std::size_t u) {
      if (ec.cover.eval(sg.code(static_cast<StateId>(u)))) return;
      for (const auto& edge : sg.succs(static_cast<StateId>(u))) {
        if (!zone.test(edge.target)) continue;
        EXPECT_FALSE(ec.cover.eval(sg.code(edge.target)))
            << "cover rises inside QR of " << sg.event_string(ec.event);
      }
    });
  }
}

TEST(McCover, HandshakeCovers) {
  const StateGraph sg = handshake();
  const int a = sg.find_signal("a");
  const EventCover set = monotonous_cover(sg, Event{a, true});
  const EventCover reset = monotonous_cover(sg, Event{a, false});
  expect_mc_conditions(sg, set);
  expect_mc_conditions(sg, reset);
  // a+ is excited exactly when r=1 (code 01); minimal cover is the literal r.
  EXPECT_EQ(set.cover.num_literals(), 1);
  EXPECT_EQ(reset.cover.num_literals(), 1);
}

TEST(McCover, HandshakeIsCombinational) {
  const StateGraph sg = handshake();
  const int a = sg.find_signal("a");
  const SignalSynthesis synth = synthesize_signal(sg, a);
  // a = r is a 1-literal complete cover; the C element degenerates.
  EXPECT_TRUE(synth.combinational);
  EXPECT_EQ(synth.complete_complexity, 1);
  EXPECT_EQ(synth.complexity, 1);
}

TEST(McCover, InputSignalRejected) {
  const StateGraph sg = handshake();
  EXPECT_THROW(synthesize_signal(sg, sg.find_signal("r")), Error);
}

TEST(McCover, ParallelizerJoinIsWide) {
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  const int d = sg.find_signal("d");
  const SignalSynthesis synth = synthesize_signal(sg, d);
  // d+ needs all four grants: a 4-literal AND (possibly via complement).
  EXPECT_GE(synth.set.cover.num_literals(), 4);
  expect_mc_conditions(sg, synth.set);
  expect_mc_conditions(sg, synth.reset);
}

TEST(McCover, SharedOutResetIsMultiCube) {
  const StateGraph sg = bench::make_shared_out(3).to_state_graph();
  const int z = sg.find_signal("z");
  const SignalSynthesis synth = synthesize_signal(sg, z);
  expect_mc_conditions(sg, synth.set);
  expect_mc_conditions(sg, synth.reset);
  // One cube per client on at least one side of the implementation.
  EXPECT_GE(std::max(synth.set.cover.size(), synth.reset.cover.size()), 3u);
}

TEST(McCover, HazardSetCoverMatchesPaper) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const int x = sg.find_signal("x");
  const SignalSynthesis synth = synthesize_signal(sg, x);
  // The paper's running example: Sx is the single cube a'*c*d.
  ASSERT_EQ(synth.set.cover.size(), 1u);
  EXPECT_EQ(synth.set.cover.num_literals(), 3);
  const Cube cube = synth.set.cover.cubes()[0];
  EXPECT_TRUE(cube.has_literal(sg.find_signal("a")));
  EXPECT_FALSE(cube.polarity(sg.find_signal("a")));
  EXPECT_TRUE(cube.has_literal(sg.find_signal("c")));
  EXPECT_TRUE(cube.polarity(sg.find_signal("c")));
  EXPECT_TRUE(cube.has_literal(sg.find_signal("d")));
  EXPECT_TRUE(cube.polarity(sg.find_signal("d")));
  expect_mc_conditions(sg, synth.set);
}

TEST(McCover, AllSuiteStyleCoversSatisfyMc) {
  for (const Stg& stg :
       {bench::make_pipeline(2), bench::make_seq_chain(3),
        bench::make_choice_mixer(3), bench::make_combo(2, 2)}) {
    const StateGraph sg = stg.to_state_graph();
    ASSERT_TRUE(check_implementability(sg));
    for (int sig : sg.noninput_signals()) {
      const SignalSynthesis synth = synthesize_signal(sg, sig);
      expect_mc_conditions(sg, synth.set);
      expect_mc_conditions(sg, synth.reset);
    }
  }
}

TEST(McCover, SynthesizeAllBuildsNetlist) {
  const StateGraph sg = bench::make_parallelizer(3).to_state_graph();
  std::vector<SignalSynthesis> syntheses;
  const Netlist netlist = synthesize_all(sg, {}, &syntheses);
  EXPECT_EQ(netlist.impls().size(), sg.noninput_signals().size());
  EXPECT_EQ(syntheses.size(), netlist.impls().size());
  EXPECT_GE(netlist.max_gate_complexity(), 3);
  for (int sig : sg.noninput_signals()) EXPECT_NE(netlist.impl_of(sig), nullptr);
  EXPECT_EQ(netlist.impl_of(sg.find_signal("r")), nullptr);
}

TEST(McCover, CompleteCoverMatchesNextValue) {
  for (const Stg& stg : {bench::make_hazard(), bench::make_seq_chain(2)}) {
    const StateGraph sg = stg.to_state_graph();
    for (int sig : sg.noninput_signals()) {
      int complexity = 0;
      const Cover c = complete_cover(sg, sig, &complexity);
      sg.reachable().for_each([&](std::size_t s) {
        const auto id = static_cast<StateId>(s);
        EXPECT_EQ(c.eval(sg.code(id)), next_value(sg, id, sig))
            << "signal " << sg.signal(sig).name << " state "
            << sg.code_string(id);
      });
      EXPECT_GE(complexity, 0);
    }
  }
}

TEST(CoverBounds, HandshakeBoundsAreTight) {
  // a follows r: each cover of a is the single literal r or r'.
  const StateGraph sg = handshake();
  const std::vector<CoverBounds> bounds = cover_lower_bounds(sg);
  ASSERT_EQ(bounds.size(), 2u);
  const CoverBounds& r = bounds[sg.find_signal("r")];
  EXPECT_EQ(r.set + r.reset + r.complete, 0);
  const CoverBounds& a = bounds[sg.find_signal("a")];
  EXPECT_EQ(a.set, 1);
  EXPECT_EQ(a.reset, 1);
  EXPECT_EQ(a.complete, 1);
}

/// Every non-input signal of `sg`, synthesized under each architecture,
/// costs at least its bound: each cover and each gate-cost component.
void expect_bounds_hold(const StateGraph& sg, const std::string& what) {
  const std::vector<CoverBounds> bounds = cover_lower_bounds(sg);
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(sg.num_signals())) << what;
  for (const int sig : sg.noninput_signals()) {
    const CoverBounds& b = bounds[static_cast<std::size_t>(sig)];
    const std::string at = what + " signal " + sg.signal(sig).name;
    for (const Architecture arch :
         {Architecture::kAuto, Architecture::kStandardC,
          Architecture::kComplexGate}) {
      McOptions mc;
      mc.architecture = arch;
      const SignalSynthesis s = synthesize_signal(sg, sig, mc);
      EXPECT_GE(s.set.complexity, b.set) << at;
      EXPECT_GE(s.reset.complexity, b.reset) << at;
      EXPECT_GE(s.complete_complexity, b.complete) << at;
      for (const int i : {2, 3, 4}) {
        const GateLibrary library{i};
        const MapMetrics cost = signal_metrics(s, library);
        const MapMetrics low = signal_metrics_bound(b, arch, library);
        EXPECT_GE(cost.gates_over_library, low.gates_over_library) << at;
        EXPECT_GE(cost.max_complexity, low.max_complexity) << at;
        EXPECT_GE(cost.total_literals, low.total_literals) << at;
      }
    }
  }
}

TEST(CoverBounds, HoldOnTheCorpusAndEveryCommittedMapRevision) {
  for (const std::string& name : bench::suite_names()) {
    // The CSC-resolved corpus SG, the map stage's input.
    FlowOptions front;
    front.stop_after = Stage::kCsc;
    Flow flow(front);
    Spec spec;
    spec.name = name;
    spec.format = SpecFormat::kG;
    spec.stg = bench::suite_benchmark(name).stg;
    const FlowReport report = flow.run_spec(spec);
    ASSERT_TRUE(report.ok) << name << ": " << report.failure;
    StateGraph sg = *flow.context().sg;
    sg.prune_unreachable();
    expect_bounds_hold(sg, name);

    // Replay the i=2 mapping one committed insertion at a time.
    MapperOptions opts;
    opts.library.max_literals = 2;
    opts.max_insertions = 1;
    for (int step = 1;; ++step) {
      const MapResult r = technology_map(sg, opts);
      if (r.signals_inserted == 0) break;
      sg = *r.sg;
      expect_bounds_hold(sg, name + " revision " + std::to_string(step));
      if (r.implementable) break;
    }
  }
}

TEST(CoverBounds, HoldOnRandomSpecs) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    StateGraph sg = bench::make_random_stg(seed).to_state_graph();
    sg.prune_unreachable();
    ASSERT_TRUE(check_implementability(sg)) << "seed " << seed;
    expect_bounds_hold(sg, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace sitm
