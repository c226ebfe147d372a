// Property-based tests: invariants checked over parameterized sweeps of the
// generator families and randomized divisors.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "benchlib/generators.hpp"
#include "core/insertion.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "mlogic/divisors.hpp"
#include "netlist/si_verify.hpp"
#include "sg/properties.hpp"
#include "stg/stg.hpp"
#include "support/insertion_verifier.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

// ------------------------------------------------------------------ sweeps

using FamilyParam = std::tuple<std::string, int>;

StateGraph build_family(const FamilyParam& param) {
  const auto& [family, size] = param;
  if (family == "pipeline") return bench::make_pipeline(size).to_state_graph();
  if (family == "parallelizer")
    return bench::make_parallelizer(size).to_state_graph();
  if (family == "seq_chain") return bench::make_seq_chain(size).to_state_graph();
  if (family == "choice_mixer")
    return bench::make_choice_mixer(size).to_state_graph();
  if (family == "shared_out")
    return bench::make_shared_out(size).to_state_graph();
  return bench::make_combo(size, size).to_state_graph();
}

class FamilySweep : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(FamilySweep, SpecificationInvariants) {
  const StateGraph sg = build_family(GetParam());
  EXPECT_TRUE(check_consistency(sg));
  EXPECT_TRUE(check_speed_independence(sg));
  EXPECT_TRUE(check_csc(sg));
  // Reachability: every state reachable (generators emit live cycles).
  EXPECT_EQ(sg.reachable().count(), sg.num_states());
}

TEST_P(FamilySweep, SynthesisInvariants) {
  const StateGraph sg = build_family(GetParam());
  std::vector<SignalSynthesis> syntheses;
  const Netlist netlist = synthesize_all(sg, {}, &syntheses);
  // Every non-input signal implemented; covers obey MC semantically.
  for (const auto& synth : syntheses) {
    const DynBitset er = union_er(sg, synth.set.regions);
    er.for_each([&](std::size_t s) {
      EXPECT_TRUE(synth.set.cover.eval(sg.code(static_cast<StateId>(s))));
    });
    const DynBitset er_fall = union_er(sg, synth.reset.regions);
    er_fall.for_each([&](std::size_t s) {
      EXPECT_TRUE(synth.reset.cover.eval(sg.code(static_cast<StateId>(s))));
    });
    // Set and reset covers never both 1 on a reachable state (one-hot).
    sg.reachable().for_each([&](std::size_t s) {
      const StateCode code = sg.code(static_cast<StateId>(s));
      EXPECT_FALSE(synth.set.cover.eval(code) && synth.reset.cover.eval(code))
          << sg.signal(synth.signal).name << " state "
          << sg.code_string(static_cast<StateId>(s));
    });
  }
  // The synthesized netlist is SI and conformant by construction.
  const SiVerifyResult verify = verify_speed_independence(netlist);
  EXPECT_TRUE(verify.ok) << verify.why;
}

TEST_P(FamilySweep, InsertionInvariants) {
  const StateGraph sg = build_family(GetParam());
  std::vector<SignalSynthesis> syntheses;
  synthesize_all(sg, {}, &syntheses);
  int planned = 0;
  for (const auto& synth : syntheses) {
    for (const EventCover* ec : {&synth.set, &synth.reset}) {
      for (const Cover& f : generate_divisors(ec->cover)) {
        const auto plan = InsertionPlanner(sg).plan(f);
        if (!plan) continue;
        ++planned;
        // Structural invariants of a valid plan.
        EXPECT_TRUE((plan->er_rise - plan->s1).none());
        EXPECT_TRUE(plan->er_fall.disjoint(plan->s1));
        EXPECT_TRUE(plan->er_rise.disjoint(plan->er_fall));
        // Insertion preserves all behavioural properties.
        const StateGraph next = insert_signal(sg, *plan, "prop");
        const auto check = InsertionVerifier(sg).verify(
            next, /*require_csc=*/true, ~DynBitset(sg.num_signals()));
        EXPECT_TRUE(check.ok) << check.why;
        if (planned >= 8) return;  // bound runtime per instance
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilySweep,
    ::testing::Values(FamilyParam{"pipeline", 2}, FamilyParam{"pipeline", 3},
                      FamilyParam{"parallelizer", 2},
                      FamilyParam{"parallelizer", 4},
                      FamilyParam{"seq_chain", 3}, FamilyParam{"seq_chain", 5},
                      FamilyParam{"choice_mixer", 2},
                      FamilyParam{"choice_mixer", 4},
                      FamilyParam{"shared_out", 2},
                      FamilyParam{"shared_out", 3}, FamilyParam{"combo", 2},
                      FamilyParam{"combo", 3}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------ randomized divisors

TEST(RandomDivisors, PlannedInsertionsAlwaysVerify) {
  Rng rng(2026);
  const StateGraph sg = bench::make_combo(3, 2).to_state_graph();
  int tried = 0, valid = 0;
  while (tried < 60) {
    // Random 2-3 literal cube over non-input signals.
    Cube c = Cube::one();
    const int lits = 2 + static_cast<int>(rng.below(2));
    for (int i = 0; i < lits; ++i) {
      const int v = static_cast<int>(rng.below(sg.num_signals()));
      c = c.with_literal(v, rng.below(2) == 0);
    }
    ++tried;
    const Cover f(sg.num_signals(), {c});
    const auto plan = InsertionPlanner(sg).plan(f);
    if (!plan) continue;
    ++valid;
    const StateGraph next = insert_signal(sg, *plan, "rnd");
    const auto check = InsertionVerifier(sg).verify(
        next, /*require_csc=*/true, ~DynBitset(sg.num_signals()));
    EXPECT_TRUE(check.ok) << "divisor failed: " << check.why;
  }
  // The generator families admit at least some random legal insertions.
  EXPECT_GT(valid, 0);
}

// ---------------------------------------------------------- state coding

TEST(StateCoding, CscTellsApartOutputsThirtyTwoSignalsApart) {
  // Two states share the all-zero code; one enables o1+ and the other o33+.
  // Their output events differ, so this is a CSC conflict however wide the
  // graph is.
  StateGraphBuilder builder;
  for (int i = 0; i < 34; ++i)
    builder.add_signal("o" + std::to_string(i), SignalKind::kOutput);
  const StateId s0 = builder.add_state(0), s1 = builder.add_state(0);
  const StateId up1 = builder.add_state(StateCode{1} << 1);
  const StateId up33 = builder.add_state(StateCode{1} << 33);
  builder.add_arc(s0, Event{1, true}, up1);
  builder.add_arc(s1, Event{33, true}, up33);
  builder.set_initial(s0);
  const StateGraph sg = std::move(builder).freeze();
  const PropertyResult csc = check_csc(sg);
  EXPECT_FALSE(csc);
  const std::string zeros(34, '0');
  EXPECT_EQ(csc.why,
            "CSC conflict between states 0 and 1 (code " + zeros + ")");
  EXPECT_FALSE(check_usc(sg));
}

TEST(MapperSweep, LibraryMonotonicity) {
  // Larger libraries can only make instances easier (never fewer solved,
  // never more insertions).
  for (const Stg& stg : {bench::make_parallelizer(4), bench::make_combo(2, 3),
                         bench::make_shared_out(2)}) {
    const StateGraph sg = stg.to_state_graph();
    int prev_insertions = INT32_MAX;
    bool prev_ok = false;
    for (int lib = 2; lib <= 4; ++lib) {
      MapperOptions opts;
      opts.library.max_literals = lib;
      const MapResult r = technology_map(sg, opts);
      if (prev_ok) {
        EXPECT_TRUE(r.implementable);
      }
      if (r.implementable && prev_ok) {
        EXPECT_LE(r.signals_inserted, prev_insertions);
      }
      if (r.implementable) {
        prev_ok = true;
        prev_insertions = r.signals_inserted;
      }
    }
  }
}

}  // namespace
}  // namespace sitm
