// The explicit equivalence check (netlist/equiv.hpp) against the symbolic
// oracle (support/bdd_equiv.hpp): both decide the same per-gate statement
// over the reachable states, so on every netlist they must agree on the
// verdict, the counts and the ordered list of failed networks.  Each
// explicit counterexample must be a reachable state carrying its code that
// really violates the condition its message names, and for conditions 1
// and 2 the lowest such state.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "flow/flow.hpp"
#include "netlist/equiv.hpp"
#include "sg/regions.hpp"
#include "stg/load.hpp"
#include "support/bdd_equiv.hpp"

namespace sitm {
namespace {

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const auto dir =
      std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks";
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".g") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

Spec stg_spec(Stg stg, std::string name) {
  Spec spec;
  spec.name = std::move(name);
  spec.format = SpecFormat::kG;
  spec.stg = std::move(stg);
  return spec;
}

/// Map `spec` at `literals` with the flow stopped after map; nullptr when
/// the flow fails (random specs may).
const Netlist* mapped(Flow& flow, Spec spec, int literals) {
  FlowOptions opts;
  opts.stop_after = Stage::kMap;
  opts.mapper.library.max_literals = literals;
  flow = Flow(opts);
  if (!flow.run_spec(std::move(spec)).ok || !flow.context().netlist)
    return nullptr;
  return &*flow.context().netlist;
}

/// Whether state q violates the condition `v.why` names on v's network,
/// and, for conditions 1 and 2, whether no lower state does.
void expect_real_violation(const Netlist& netlist, const GateVerdict& v,
                           const std::string& what) {
  const StateGraph& sg = netlist.sg();
  const SignalImpl* impl = netlist.impl_of(v.signal);
  ASSERT_NE(impl, nullptr) << what;
  const Cover& cover = v.network == "reset" ? impl->reset : impl->set;
  const DynBitset reachable = sg.reachable();
  DynBitset on = sg.empty_set(), off = sg.empty_set();
  std::vector<Region> regions;
  if (v.network == "complete") {
    reachable.for_each([&](std::size_t u) {
      (next_value(sg, static_cast<StateId>(u), v.signal) ? on : off).set(u);
    });
  } else {
    regions = excitation_regions(sg, Event{v.signal, v.network == "set"});
    on = union_er(sg, regions);
    off = reachable - on - union_qr(sg, regions);
  }
  const StateId q = v.counterexample_state;
  auto reads = [&](StateId s) { return cover.eval(sg.code(s)); };

  auto lowest_of = [&](const DynBitset& set, bool wrong) {
    for (std::size_t u = set.first(); u != DynBitset::npos; u = set.next(u))
      if (reads(static_cast<StateId>(u)) == wrong)
        return static_cast<StateId>(u);
    return kNoState;
  };
  if (v.why.find("is 0 in state") != std::string::npos) {
    EXPECT_EQ(q, lowest_of(on, false)) << what << ": " << v.why;
  } else if (v.why.find("is 1 in an off state") != std::string::npos) {
    EXPECT_EQ(q, lowest_of(off, true)) << what << ": " << v.why;
  } else {
    ASSERT_NE(v.why.find("rises 0->1"), std::string::npos) << v.why;
    EXPECT_TRUE(reads(q)) << what;
    bool rise = false;
    for (const Region& region : regions) {
      const DynBitset zone = region.er | region.qr;
      if (!zone.test(static_cast<std::size_t>(q))) continue;
      zone.for_each([&](std::size_t u) {
        if (reads(static_cast<StateId>(u))) return;
        for (const auto& edge : sg.succs(static_cast<StateId>(u)))
          if (edge.target == q) rise = true;
      });
    }
    EXPECT_TRUE(rise) << what << ": " << v.why;
  }
}

struct Tally {
  int netlists = 0;
  int failures = 0;
  int by_condition[3] = {0, 0, 0};  ///< witnessed failures per condition
};

/// Which monotonous-cover condition (0-based) a failure message names.
int condition_of(const GateVerdict& v) {
  if (v.why.find("is 0 in state") != std::string::npos) return 0;
  if (v.why.find("is 1 in an off state") != std::string::npos) return 1;
  return 2;
}

/// Both checkers on `netlist`: same verdict, counts and failure list, and
/// every explicit witness a real violation.
void expect_agreement(const Netlist& netlist, const std::string& what,
                      Tally& tally) {
  const EquivReport fast = check_equivalence(netlist);
  const EquivReport ref = check_equivalence_bdd(netlist);
  ++tally.netlists;
  EXPECT_EQ(fast.ok, ref.ok) << what;
  EXPECT_EQ(fast.gates_checked, ref.gates_checked) << what;
  EXPECT_EQ(fast.gates_proven, ref.gates_proven) << what;
  EXPECT_EQ(fast.reach_states, ref.reach_states) << what;
  EXPECT_EQ(fast.bdd_nodes, 0u) << what;
  auto sites = [](const EquivReport& r) {
    std::vector<std::pair<int, std::string>> out;
    for (const GateVerdict& v : r.failures)
      out.emplace_back(v.signal, v.network);
    return out;
  };
  ASSERT_EQ(sites(fast), sites(ref)) << what;
  const StateGraph& sg = netlist.sg();
  for (std::size_t k = 0; k < fast.failures.size(); ++k) {
    const GateVerdict& v = fast.failures[k];
    ++tally.failures;
    EXPECT_EQ(v.counterexample_state == kNoState,
              ref.failures[k].counterexample_state == kNoState)
        << what;
    if (v.counterexample_state == kNoState) continue;
    ++tally.by_condition[condition_of(v)];
    EXPECT_TRUE(sg.reachable().test(
        static_cast<std::size_t>(v.counterexample_state)))
        << what;
    EXPECT_EQ(sg.code(v.counterexample_state), v.counterexample_code) << what;
    expect_real_violation(netlist, v, what);
  }
}

class EquivCorpus : public ::testing::TestWithParam<int> {};

TEST_P(EquivCorpus, MappedNetlistsAgreeWithTheBddOracle) {
  const int literals = GetParam();
  const auto files = corpus_files();
  ASSERT_EQ(files.size(), 32u);
  Tally tally;
  for (const auto& path : files) {
    Flow flow;
    const Netlist* netlist = mapped(flow, load_spec_file(path), literals);
    ASSERT_NE(netlist, nullptr) << path;
    expect_agreement(*netlist, path + " i=" + std::to_string(literals), tally);
  }
  EXPECT_EQ(tally.netlists, 32);
  EXPECT_EQ(tally.failures, 0);
}

INSTANTIATE_TEST_SUITE_P(Literals, EquivCorpus, ::testing::Values(2, 3, 4));

TEST(EquivOracle, GeneratorFamiliesAgree) {
  std::vector<std::pair<std::string, Stg>> cases;
  for (int k = 2; k <= 5; ++k)
    cases.emplace_back("parallelizer" + std::to_string(k),
                       bench::make_parallelizer(k));
  for (int k = 2; k <= 6; k += 2)
    cases.emplace_back("seq_chain" + std::to_string(k),
                       bench::make_seq_chain(k));
  cases.emplace_back("combo2x2", bench::make_combo(2, 2));
  cases.emplace_back("combo3x3", bench::make_combo(3, 3));
  cases.emplace_back("pipeline4", bench::make_pipeline(4));
  cases.emplace_back("choice_mixer3", bench::make_choice_mixer(3));
  cases.emplace_back("shared_out3", bench::make_shared_out(3));
  cases.emplace_back("hazard", bench::make_hazard());
  cases.emplace_back("csc_ring3", bench::make_csc_ring(3));
  Tally tally;
  for (auto& [name, stg] : cases) {
    Flow flow;
    const Netlist* netlist = mapped(flow, stg_spec(std::move(stg), name), 2);
    ASSERT_NE(netlist, nullptr) << name;
    expect_agreement(*netlist, name, tally);
  }
  EXPECT_EQ(tally.failures, 0);
}

TEST(EquivOracle, RandomSpecsAgree) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string name = "random" + std::to_string(seed);
    Flow flow;
    const Netlist* netlist =
        mapped(flow, stg_spec(bench::make_random_stg(seed), name), 3);
    if (netlist == nullptr) continue;
    expect_agreement(*netlist, name, tally);
  }
  EXPECT_GE(tally.netlists, 6);
}

TEST(EquivOracle, EveryMutantAgreesAndIsCaught) {
  const std::string specs[] = {"alloc-outbound.g", "chu133.g", "converta.g",
                               "master-read.g", "vbe5b.g"};
  Tally tally;
  int mutants = 0;
  for (const auto& name : specs) {
    const std::string path =
        (std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks" / name)
            .string();
    Flow flow;
    const Netlist* pristine = mapped(flow, load_spec_file(path), 2);
    ASSERT_NE(pristine, nullptr) << name;
    for (const NetlistMutation kind :
         {NetlistMutation::kFlipLiteral, NetlistMutation::kDropCube,
          NetlistMutation::kSwapSetReset}) {
      for (int which = 0;; ++which) {
        Netlist mutant = *pristine;
        if (!mutate_netlist(mutant, kind, which)) break;
        ++mutants;
        const std::string what = name + " " + netlist_mutation_name(kind) +
                                 " #" + std::to_string(which);
        EXPECT_FALSE(check_equivalence(mutant).ok) << what << " survived";
        expect_agreement(mutant, what, tally);
      }
    }
  }
  EXPECT_GT(mutants, 0);
  EXPECT_GE(tally.failures, mutants);
  // Narrowing a minimized cover uncovers an on-state first.
  EXPECT_GT(tally.by_condition[0], 0);
}

TEST(EquivOracle, EveryWidenedCubeAgrees) {
  // The mutation kinds only narrow or swap covers, which condition 1
  // catches first.  Dropping one literal of a cube only widens the
  // network, so these variants reach conditions 2 and 3.
  const std::string specs[] = {"alloc-outbound.g", "chu133.g", "converta.g",
                               "master-read.g", "vbe5b.g"};
  Tally tally;
  for (const auto& name : specs) {
    const std::string path =
        (std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks" / name)
            .string();
    Flow flow;
    const Netlist* pristine = mapped(flow, load_spec_file(path), 2);
    ASSERT_NE(pristine, nullptr) << name;
    for (std::size_t i = 0; i < pristine->impls().size(); ++i) {
      for (const bool reset : {false, true}) {
        const SignalImpl& impl = pristine->impls()[i];
        if (reset && impl.combinational) continue;
        const Cover& cover = reset ? impl.reset : impl.set;
        for (std::size_t c = 0; c < cover.size(); ++c) {
          for (int v = 0; v < 64; ++v) {
            if (!cover.cubes()[c].has_literal(v)) continue;
            Netlist widened = *pristine;
            Cover& target = reset ? widened.impls()[i].reset
                                  : widened.impls()[i].set;
            target.cubes()[c] = target.cubes()[c].without_literal(v);
            expect_agreement(widened,
                             name + " impl " + std::to_string(i) + " cube " +
                                 std::to_string(c) + " -x" + std::to_string(v),
                             tally);
          }
        }
      }
    }
  }
  EXPECT_GT(tally.by_condition[1], 0);
  EXPECT_GT(tally.by_condition[2], 0);
}

TEST(EquivOracle, StructurallyInvalidImplAgreesWithoutAWitness) {
  const std::string path = (std::filesystem::path(SITM_SOURCE_DIR) / "data" /
                            "benchmarks" / "alloc-outbound.g")
                               .string();
  Flow flow;
  const Netlist* pristine = mapped(flow, load_spec_file(path), 2);
  ASSERT_NE(pristine, nullptr);
  Netlist broken = *pristine;
  SignalImpl ghost = broken.impls().front();
  ghost.signal = broken.sg().num_signals() + 3;
  broken.add_impl(ghost);
  Tally tally;
  expect_agreement(broken, "ghost impl", tally);
  const EquivReport report = check_equivalence(broken);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures.front().counterexample_state, kNoState);
  EXPECT_NE(report.failures.front().why.find("structurally invalid"),
            std::string::npos);
}

TEST(EquivOracle, MoreThanThirtyTwoImplsFitTheStridedTable) {
  // One stable state over 40 outputs, each implemented as a buffer of
  // itself: gate i reads the signal's value, at bit 2i of a table row that
  // spans two words.
  constexpr int kSignals = 40;
  StateGraphBuilder builder;
  for (int i = 0; i < kSignals; ++i)
    builder.add_signal("o" + std::to_string(i), SignalKind::kOutput);
  const StateCode code = 0xA5A5A5A5A5ULL & ((StateCode{1} << kSignals) - 1);
  builder.set_initial(builder.add_state(code));
  const StateGraph sg = std::move(builder).freeze();
  Netlist netlist(&sg);
  for (int i = 0; i < kSignals; ++i) {
    SignalImpl impl;
    impl.signal = i;
    impl.combinational = true;
    impl.set = Cover(kSignals, {Cube::literal(i, true)});
    netlist.add_impl(impl);
  }
  const GateTable table(netlist);
  for (int i = 0; i < kSignals; ++i) {
    EXPECT_EQ(table.test(0, 2 * static_cast<std::size_t>(i)),
              ((code >> i) & 1u) != 0)
        << i;
    EXPECT_FALSE(table.test(0, 2 * static_cast<std::size_t>(i) + 1)) << i;
  }
  Tally tally;
  expect_agreement(netlist, "wide", tally);
  EXPECT_EQ(check_equivalence(netlist).gates_proven, kSignals);

  // Invert the last impl (in the second word): only it fails.
  netlist.impls().back().set =
      Cover(kSignals, {Cube::literal(kSignals - 1, false)});
  expect_agreement(netlist, "wide, last impl inverted", tally);
  const EquivReport bad = check_equivalence(netlist);
  ASSERT_EQ(bad.failures.size(), 1u);
  EXPECT_EQ(bad.failures.front().signal, kSignals - 1);
  EXPECT_EQ(bad.failures.front().counterexample_state, 0);
}

}  // namespace
}  // namespace sitm
