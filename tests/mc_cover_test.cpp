// Unit tests for monotonous cover synthesis (MC conditions 1-3, complete
// covers, and the combinational-vs-standard-C architecture choice), and the
// soundness of cover_lower_bounds: no synthesis of any signal costs less
// than its bound, under every architecture, on the corpus, on each SG
// revision the mapper commits, and on random specs.  On the same graphs,
// every cover's complexity equals the min-literal measure over its fully
// minimized complement, which the synthesis skips when arcs prove it moot,
// and a synthesis given its bounds equals the unbounded one apart from the
// complete covers the bounds show cannot be chosen.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "boolf/minimize.hpp"
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
/// costs at least its bound: each cover and each gate-cost component.  The
/// complete cover is minimized here once, since kStandardC skips it.
void expect_bounds_hold(const StateGraph& sg, const std::string& what) {
  const std::vector<CoverBounds> bounds = cover_lower_bounds(sg);
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(sg.num_signals())) << what;
  for (const int sig : sg.noninput_signals()) {
    const CoverBounds& b = bounds[static_cast<std::size_t>(sig)];
    const std::string at = what + " signal " + sg.signal(sig).name;
    int complete_measure = 0;
    complete_cover(sg, sig, &complete_measure);
    EXPECT_GE(complete_measure, b.complete) << at;
    for (const Architecture arch :
         {Architecture::kAuto, Architecture::kStandardC,
          Architecture::kComplexGate}) {
      McOptions mc;
      mc.architecture = arch;
      const SignalSynthesis s = synthesize_signal(sg, sig, mc);
      EXPECT_GE(s.set.complexity, b.set) << at;
      EXPECT_GE(s.reset.complexity, b.reset) << at;
      EXPECT_EQ(s.complete.has_value(), arch != Architecture::kStandardC)
          << at;
      if (s.complete) EXPECT_EQ(s.complete_complexity, complete_measure) << at;
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

using GraphCheck =
    std::function<void(const StateGraph&, const std::string&)>;

/// Calls `check` on every CSC-resolved corpus SG and on each SG revision
/// the i=2 mapping commits from it.
void for_each_corpus_revision(const GraphCheck& check) {
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
    check(sg, name);

    // Replay the i=2 mapping one committed insertion at a time.
    MapperOptions opts;
    opts.library.max_literals = 2;
    opts.max_insertions = 1;
    for (int step = 1;; ++step) {
      const MapResult r = technology_map(sg, opts);
      if (r.signals_inserted == 0) break;
      sg = *r.sg;
      check(sg, name + " revision " + std::to_string(step));
      if (r.implementable) break;
    }
  }
}

/// Calls `check` on the SGs of 24 seeded random specs.
void for_each_random_graph(const GraphCheck& check) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    StateGraph sg = bench::make_random_stg(seed).to_state_graph();
    sg.prune_unreachable();
    ASSERT_TRUE(check_implementability(sg)) << "seed " << seed;
    check(sg, "seed " + std::to_string(seed));
  }
}

TEST(CoverBounds, HoldOnTheCorpusAndEveryCommittedMapRevision) {
  for_each_corpus_revision(expect_bounds_hold);
}

TEST(CoverBounds, HoldOnRandomSpecs) {
  for_each_random_graph(expect_bounds_hold);
}

/// Synthesizing each signal of `sg` with its bound, under each
/// architecture, gives the unbounded synthesis's set, reset,
/// combinational and complexity.  Where the bound skipped the complete
/// cover, the cover's measure exceeds the worse set/reset gate, so it could
/// not have been chosen, and is at least the stored bound.  Returns the
/// number of skips.
int expect_bounded_synthesis_same(const StateGraph& sg,
                                  const std::string& what) {
  const std::vector<CoverBounds> bounds = cover_lower_bounds(sg);
  int skipped = 0;
  for (const int sig : sg.noninput_signals()) {
    const CoverBounds& b = bounds[static_cast<std::size_t>(sig)];
    const std::string at = what + " signal " + sg.signal(sig).name;
    for (const Architecture arch :
         {Architecture::kAuto, Architecture::kStandardC,
          Architecture::kComplexGate}) {
      McOptions mc;
      mc.architecture = arch;
      const SignalSynthesis free = synthesize_signal(sg, sig, mc);
      const SignalSynthesis bounded = synthesize_signal(sg, sig, mc, &b);
      EXPECT_TRUE(bounded.set.cover == free.set.cover) << at;
      EXPECT_EQ(bounded.set.complexity, free.set.complexity) << at;
      EXPECT_TRUE(bounded.reset.cover == free.reset.cover) << at;
      EXPECT_EQ(bounded.reset.complexity, free.reset.complexity) << at;
      EXPECT_EQ(bounded.combinational, free.combinational) << at;
      EXPECT_EQ(bounded.complexity, free.complexity) << at;
      if (bounded.complete) {
        EXPECT_TRUE(bounded.complete == free.complete) << at;
        EXPECT_EQ(bounded.complete_complexity, free.complete_complexity)
            << at;
      } else if (arch == Architecture::kAuto) {
        ++skipped;
        EXPECT_EQ(bounded.complete_complexity, b.complete) << at;
        EXPECT_GT(free.complete_complexity,
                  std::max(free.set.complexity, free.reset.complexity))
            << at;
        EXPECT_GE(free.complete_complexity, bounded.complete_complexity)
            << at;
      }
    }
  }
  return skipped;
}

TEST(CoverBounds, SkippedCompleteCoversChangeNothingOnTheCorpus) {
  int skipped = 0;
  for_each_corpus_revision([&](const StateGraph& sg, const std::string& what) {
    skipped += expect_bounded_synthesis_same(sg, what);
  });
  EXPECT_GT(skipped, 0);
}

TEST(CoverBounds, SkippedCompleteCoversChangeNothingOnRandomSpecs) {
  int skipped = 0;
  for_each_random_graph([&](const StateGraph& sg, const std::string& what) {
    skipped += expect_bounded_synthesis_same(sg, what);
  });
  EXPECT_GT(skipped, 0);
}

std::vector<std::uint64_t> codes_in(const StateGraph& sg, const DynBitset& set) {
  std::vector<std::uint64_t> out;
  set.for_each([&](std::size_t s) {
    out.push_back(sg.code(static_cast<StateId>(s)));
  });
  return out;
}

/// Distinct (signal, polarity) pairs labelling arcs, in either direction,
/// between a state of `on` and a state of `off`: literals every cover of
/// `off` against `on` must carry.
int forced_literal_count(const StateGraph& sg, const DynBitset& on,
                         const DynBitset& off) {
  std::set<std::pair<int, bool>> forced;
  on.for_each([&](std::size_t s) {
    const auto u = static_cast<StateId>(s);
    for (const auto* edges : {&sg.succs(u), &sg.preds(u)})
      for (const auto& edge : *edges)
        if (off.test(static_cast<std::size_t>(edge.target)))
          forced.emplace(edge.event.signal,
                         sg.value(edge.target, edge.event.signal));
  });
  return static_cast<int>(forced.size());
}

/// `complexity` is min(lit(direct), lit(the complement minimized in
/// full)), and the arc-forced count bounds that complement.
void expect_gate_measure(const StateGraph& sg, const Cover& direct,
                         int complexity, const DynBitset& on,
                         const DynBitset& off, const std::string& what) {
  const Cover complement =
      minimize_onoff(codes_in(sg, off), codes_in(sg, on), sg.num_signals());
  EXPECT_EQ(complexity,
            std::min(direct.num_literals(), complement.num_literals()))
      << what;
  EXPECT_LE(forced_literal_count(sg, on, off), complement.num_literals())
      << what;
}

void expect_complexity_exact(const StateGraph& sg, const std::string& what) {
  const DynBitset reachable = sg.reachable();
  for (const int sig : sg.noninput_signals()) {
    const std::string at = what + " signal " + sg.signal(sig).name;
    const SignalSynthesis s = synthesize_signal(sg, sig);
    EXPECT_GE(s.minimizations, 3) << at;
    expect_gate_measure(sg, s.set.cover, s.set.complexity, s.set.on,
                        s.set.off, at + " set");
    expect_gate_measure(sg, s.reset.cover, s.reset.complexity, s.reset.on,
                        s.reset.off, at + " reset");

    DynBitset on = sg.empty_set();
    reachable.for_each([&](std::size_t st) {
      if (next_value(sg, static_cast<StateId>(st), sig)) on.set(st);
    });
    const DynBitset off = reachable - on;
    const Cover direct =
        minimize_onoff(codes_in(sg, on), codes_in(sg, off), sg.num_signals());
    ASSERT_TRUE(s.complete.has_value()) << at;
    EXPECT_TRUE(direct == *s.complete) << at;
    expect_gate_measure(sg, *s.complete, s.complete_complexity, on, off,
                        at + " complete");
  }
}

TEST(McCover, ComplementWinsAtItsForcedLiteralCount) {
  // Inputs a, b, c toggle freely; x rises where c(a'+b') holds and then
  // stays.  The next-state cover a'c + b'c has 4 literals, its complement
  // ab + c' has 3, and arcs across the boundary flip a, b and c: the
  // complement sits exactly at its forced count, one below the cover.
  StateGraph sg;
  for (const char* name : {"a", "b", "c"})
    sg.add_signal(name, SignalKind::kInput);
  const int x = sg.add_signal("x", SignalKind::kOutput);
  const auto f = [](unsigned code) {
    return (code & 4) != 0 && (code & 3) != 3;
  };
  for (unsigned code = 0; code < 8; ++code) sg.add_state(code);
  for (unsigned code = 0; code < 8; ++code) {
    const auto s = static_cast<StateId>(code);
    for (int v = 0; v < 3; ++v)
      sg.add_arc(s, Event{v, ((code >> v) & 1) == 0},
                 static_cast<StateId>(code ^ (1u << v)));
    if (f(code)) sg.add_arc(s, Event{x, true}, sg.add_state(code | 8));
  }
  sg.set_initial(0);

  const SignalSynthesis s = synthesize_signal(sg, x);
  ASSERT_TRUE(s.complete.has_value());
  EXPECT_EQ(s.complete->num_literals(), 4);
  EXPECT_EQ(s.complete_complexity, 3);
  expect_complexity_exact(sg, "c(a'+b')");
}

TEST(CoverBounds, DisjointCubesSkipTheCElementsCompleteCover) {
  // Inputs a, b toggle freely; c rises when both are 1 and falls when both
  // are 0.  The next-state function ab + ac + bc and its complement both
  // have 6 literals.  The inputs may fall back while c is stable, so the
  // monotonicity repair keeps c's own literal in set abc' and reset a'b'c:
  // 3 literals each.  Arcs across the next-state boundary force only a and
  // b (2 distinct literals), but the next=1 states 011, 101 and 110 (cba)
  // are pairwise apart and force 1 + 1 + 2 literals, as do 100, 010 and
  // 001 on the next=0 side: the complete bound is 4, above the gates.
  StateGraph sg;
  const int a = sg.add_signal("a", SignalKind::kInput);
  const int b = sg.add_signal("b", SignalKind::kInput);
  const int c = sg.add_signal("c", SignalKind::kOutput);
  for (unsigned code = 0; code < 8; ++code) sg.add_state(code);
  for (unsigned code = 0; code < 8; ++code) {
    const auto s = static_cast<StateId>(code);
    for (const int v : {a, b})
      sg.add_arc(s, Event{v, ((code >> v) & 1) == 0},
                 static_cast<StateId>(code ^ (1u << v)));
  }
  sg.add_arc(3, Event{c, true}, 7);
  sg.add_arc(4, Event{c, false}, 0);
  sg.set_initial(0);
  sg.prune_unreachable();
  ASSERT_EQ(sg.num_states(), 8u);

  const CoverBounds bound = cover_lower_bounds(sg)[c];
  EXPECT_EQ(bound.set, 2);
  EXPECT_EQ(bound.reset, 2);
  EXPECT_EQ(bound.complete, 4);
  DynBitset on = sg.empty_set();
  for (StateId s = 0; s < 8; ++s)
    if (next_value(sg, s, c)) on.set(s);
  EXPECT_EQ(forced_literal_count(sg, on, sg.full_set() - on), 2);

  const SignalSynthesis bounded = synthesize_signal(sg, c, {}, &bound);
  EXPECT_FALSE(bounded.complete.has_value());
  EXPECT_FALSE(bounded.combinational);
  EXPECT_EQ(bounded.complexity, 3);
  EXPECT_EQ(bounded.complete_complexity, 4);
  const SignalSynthesis free = synthesize_signal(sg, c);
  ASSERT_TRUE(free.complete.has_value());
  EXPECT_EQ(free.complete_complexity, 6);
  EXPECT_FALSE(free.combinational);

  std::vector<SignalSynthesis> syntheses;
  const Netlist netlist = synthesize_all(sg, {}, &syntheses);
  ASSERT_EQ(syntheses.size(), 1u);
  EXPECT_FALSE(syntheses[0].complete.has_value());
  EXPECT_EQ(netlist.num_c_elements(), 1);
  expect_bounds_hold(sg, "C element");
}

TEST(McCover, ComplexityEqualsTheFullComplementMeasureOnTheCorpus) {
  for_each_corpus_revision(expect_complexity_exact);
}

TEST(McCover, ComplexityEqualsTheFullComplementMeasureOnRandomSpecs) {
  for_each_random_graph(expect_complexity_exact);
}

}  // namespace
}  // namespace sitm
