// The frozen StateGraph and the passes that read it a word at a time.
//
// Order: each state's successors keep the order in which the builder added
// their arcs, through StateGraphBuilder::freeze, read_sg, insert_signal and
// prune_unreachable's renumbering.  (Stg::to_state_graph's numbering and
// arc order are pinned against a reference exploration in
// perf_equiv_test.)  Every DFS, first-failure message and counterexample
// depends on it.
//
// Differential: check_determinism and check_persistency against the
// scalar scans, verdict and message, and cover_lower_bounds against the
// version that sorts its forced arc ends, every field
// (tests/support/sg_oracle), on the corpus SGs and every committed map
// revision at i=2, the generator families, random STGs, and variants with
// one arc dropped or duplicated, which break persistency and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "core/insertion.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "sg/state_graph.hpp"
#include "support/sg_oracle.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

using Edges = std::vector<std::pair<Event, StateId>>;

Edges edges_of(std::span<const StateGraph::Edge> span) {
  Edges out;
  for (const auto& e : span) out.emplace_back(e.event, e.target);
  return out;
}

void expect_same(const PropertyResult& got, const PropertyResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.why, want.why) << what;
}

/// Every word-parallel pass against its oracle on `sg`.
void expect_matches_oracles(const StateGraph& sg, const std::string& what) {
  expect_same(check_determinism(sg), scalar_check_determinism(sg),
              what + ": determinism");
  std::vector<int> all(static_cast<std::size_t>(sg.num_signals()));
  std::iota(all.begin(), all.end(), 0);
  for (const auto& watched : {all, sg.noninput_signals(), std::vector<int>{}})
    expect_same(check_persistency(sg, watched),
                scalar_check_persistency(sg, watched), what + ": persistency");
  for (const int sig : all)
    expect_same(check_persistency(sg, {sig}),
                scalar_check_persistency(sg, {sig}),
                what + ": persistency of " + sg.signal(sig).name);

  const std::vector<CoverBounds> got = cover_lower_bounds(sg);
  const std::vector<CoverBounds> want = sorting_cover_lower_bounds(sg);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t a = 0; a < got.size(); ++a) {
    EXPECT_EQ(got[a].set, want[a].set) << what << " signal " << a;
    EXPECT_EQ(got[a].reset, want[a].reset) << what << " signal " << a;
    EXPECT_EQ(got[a].complete, want[a].complete) << what << " signal " << a;
  }
}

enum class ArcChange { kDrop, kDuplicate, kDuplicateElsewhere };

/// `sg` rebuilt with its k-th arc (state by state, in arc order) dropped,
/// or followed by a copy that has the same target or the next state.
StateGraph with_arc_changed(const StateGraph& sg, std::size_t k,
                            ArcChange change) {
  StateGraphBuilder b;
  for (const auto& sig : sg.signals()) b.add_signal(sig.name, sig.kind);
  const auto n = static_cast<StateId>(sg.num_states());
  for (StateId s = 0; s < n; ++s) b.add_state(sg.code(s));
  std::size_t i = 0;
  for (StateId s = 0; s < n; ++s) {
    for (const auto& e : sg.succs(s)) {
      if (i++ != k) {
        b.add_arc(s, e.event, e.target);
        continue;
      }
      if (change == ArcChange::kDrop) continue;
      b.add_arc(s, e.event, e.target);
      b.add_arc(s, e.event,
                change == ArcChange::kDuplicate ? e.target
                                                : (e.target + 1) % n);
    }
  }
  b.set_initial(sg.initial());
  return std::move(b).freeze();
}

/// The oracles on `sg` and on arc-changed variants of it (about `samples`
/// arcs of each kind of change).  Returns how many variants failed
/// determinism and persistency, by the oracle.
std::pair<int, int> expect_variants_match(const StateGraph& sg,
                                          const std::string& what,
                                          std::size_t samples = 12) {
  expect_matches_oracles(sg, what);
  std::pair<int, int> failures{0, 0};
  std::vector<int> all(static_cast<std::size_t>(sg.num_signals()));
  std::iota(all.begin(), all.end(), 0);
  const std::size_t stride = std::max<std::size_t>(1, sg.num_arcs() / samples);
  for (std::size_t k = 0; k < sg.num_arcs(); k += stride) {
    for (const ArcChange change :
         {ArcChange::kDrop, ArcChange::kDuplicate,
          ArcChange::kDuplicateElsewhere}) {
      const StateGraph variant = with_arc_changed(sg, k, change);
      expect_matches_oracles(variant,
                             what + " arc " + std::to_string(k) + " change " +
                                 std::to_string(static_cast<int>(change)));
      if (!scalar_check_determinism(variant)) ++failures.first;
      if (!scalar_check_persistency(variant, all)) ++failures.second;
    }
  }
  return failures;
}

/// The CSC-resolved SG of a corpus spec (the map stage's input) and the SG
/// after each step the mapper committed at i=2, replayed.
std::vector<StateGraph> corpus_revisions(const std::string& name) {
  FlowOptions front;
  front.stop_after = Stage::kCsc;
  Flow flow(front);
  Spec spec;
  spec.name = name;
  spec.format = SpecFormat::kG;
  spec.stg = bench::suite_benchmark(name).stg;
  const FlowReport report = flow.run_spec(std::move(spec));
  EXPECT_TRUE(report.ok) << name << ": " << report.failure;
  std::vector<StateGraph> out{*flow.context().sg};
  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(out.front(), opts);
  EXPECT_TRUE(result.implementable) << name;
  for (const MapStep& step : result.steps) {
    const StateGraph& sg = out.back();
    const auto plan =
        step.latch
            ? InsertionPlanner(sg).plan_latch(step.divisor, step.divisor_reset)
            : InsertionPlanner(sg).plan(step.divisor);
    EXPECT_TRUE(plan.has_value()) << name << " " << step.new_signal;
    if (!plan) break;
    out.push_back(insert_signal(sg, *plan, step.new_signal));
  }
  EXPECT_EQ(out.back().num_states(), result.sg->num_states()) << name;
  return out;
}

// ----- order ---------------------------------------------------------------

TEST(FrozenGraph, FreezeAndPruneKeepArcOrder) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    Rng rng(seed);
    StateGraphBuilder b;
    for (const char* name : {"a", "b", "c"})
      b.add_signal(name, SignalKind::kOutput);
    const auto n = static_cast<StateId>(4 + rng.below(28));
    for (StateId s = 0; s < n; ++s) b.add_state(rng.below(8));
    // Arcs in random source order, duplicates included.
    std::vector<Edges> succs(static_cast<std::size_t>(n));
    std::vector<Edges> preds(static_cast<std::size_t>(n));
    for (int k = 0; k < 3 * n; ++k) {
      const auto from = static_cast<StateId>(rng.below(n));
      const auto to = static_cast<StateId>(rng.below(n));
      const Event e{static_cast<int>(rng.below(3)), rng.below(2) == 0};
      b.add_arc(from, e, to);
      succs[static_cast<std::size_t>(from)].emplace_back(e, to);
      preds[static_cast<std::size_t>(to)].emplace_back(e, from);
    }
    b.set_initial(0);
    StateGraph sg = std::move(b).freeze();
    ASSERT_EQ(sg.num_arcs(), static_cast<std::size_t>(3 * n)) << what;
    for (StateId s = 0; s < n; ++s) {
      EXPECT_EQ(edges_of(sg.succs(s)), succs[static_cast<std::size_t>(s)])
          << what;
      EXPECT_EQ(edges_of(sg.preds(s)), preds[static_cast<std::size_t>(s)])
          << what;
    }

    // Pruning renumbers in state order and each kept state keeps its arc
    // order.  A prune that removes states lists predecessors in (source,
    // arc) order; one that removes none leaves the graph as it was.
    std::vector<StateId> remap;
    const std::size_t removed = sg.prune_unreachable(&remap);
    EXPECT_EQ(sg.num_states() + removed, static_cast<std::size_t>(n)) << what;
    std::vector<Edges> kept_preds(sg.num_states());
    for (StateId s = 0; s < n; ++s) {
      const StateId t = remap[static_cast<std::size_t>(s)];
      if (t == kNoState) continue;
      Edges want;
      for (const auto& [e, to] : succs[static_cast<std::size_t>(s)]) {
        const StateId to_new = remap[static_cast<std::size_t>(to)];
        ASSERT_NE(to_new, kNoState) << what;
        want.emplace_back(e, to_new);
        kept_preds[static_cast<std::size_t>(to_new)].emplace_back(e, t);
      }
      EXPECT_EQ(edges_of(sg.succs(t)), want) << what;
    }
    for (StateId t = 0; t < static_cast<StateId>(sg.num_states()); ++t)
      EXPECT_EQ(edges_of(sg.preds(t)),
                removed > 0 ? kept_preds[static_cast<std::size_t>(t)]
                            : preds[static_cast<std::size_t>(t)])
          << what;
  }
}

TEST(FrozenGraph, ReadSgKeepsTheFileOrder) {
  for (const std::string name : {"vbe10b", "mr0", "chu133"}) {
    const std::string text = write_sg_string(
        bench::suite_benchmark(name).stg.to_state_graph(), name);
    // read_sg numbers states by first appearance in the arc lines.
    std::map<std::string, StateId> ids;
    const auto id = [&](const std::string& token) {
      return ids.emplace(token, static_cast<StateId>(ids.size())).first->second;
    };
    const StateGraph sg = read_sg_string(text);
    std::vector<Edges> want(sg.num_states());
    std::istringstream in(text);
    std::string line;
    bool in_graph = false;
    while (std::getline(in, line)) {
      if (line == ".graph") {
        in_graph = true;
        continue;
      }
      if (!in_graph || line.starts_with('.')) continue;
      std::istringstream fields(line);
      std::string from, event, to;
      fields >> from >> event >> to;
      const StateId u = id(from);
      const StateId v = id(to);
      want[static_cast<std::size_t>(u)].emplace_back(
          parse_event(sg.signals(), event), v);
    }
    for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
      EXPECT_EQ(edges_of(sg.succs(s)), want[static_cast<std::size_t>(s)])
          << name << " state " << s;
  }
}

TEST(FrozenGraph, InsertSignalKeepsArcOrderInEachCopy) {
  // Each surviving copy of a state leaves first on its pending x arc, if
  // any, then on the copies of the state's arcs, in their order.
  for (const std::string name : {"vbe10b", "pe-send-ifc", "mr0"}) {
    const std::vector<StateGraph> revisions = corpus_revisions(name);
    ASSERT_GE(revisions.size(), 2u) << name;
    const StateGraph& sg = revisions[0];
    InsertionPlanner planner(sg);
    int checked = 0;
    for (int sig : sg.noninput_signals()) {
      const auto plan =
          planner.plan(Cover(sg.num_signals(), {Cube::literal(sig, true)}));
      if (!plan) continue;
      InsertionCopies copies;
      const StateGraph next = insert_signal(sg, *plan, "x", &copies);
      const int x = next.find_signal("x");
      for (StateId u = 0; u < static_cast<StateId>(sg.num_states()); ++u) {
        for (const auto* side : {&copies.x0, &copies.x1}) {
          const StateId c = (*side)[static_cast<std::size_t>(u)];
          if (c == kNoState) continue;
          const auto out = next.succs(c);
          std::size_t i = 0;
          if (i < out.size() && out[i].event.signal == x) ++i;
          std::size_t j = 0;
          const auto old = sg.succs(u);
          for (; i < out.size(); ++i) {
            EXPECT_NE(out[i].event.signal, x) << name;
            while (j < old.size() && old[j].event != out[i].event) ++j;
            ASSERT_LT(j, old.size()) << name << ": arc order changed";
            ++j;
          }
        }
      }
      ++checked;
    }
    EXPECT_GT(checked, 0) << name;
  }
}

// ----- differential --------------------------------------------------------

TEST(SgOracle, CorpusAndEveryMapRevisionAtI2) {
  int revisions = 0;
  for (const std::string& name : bench::suite_names()) {
    const std::vector<StateGraph> graphs = corpus_revisions(name);
    expect_variants_match(bench::suite_benchmark(name).stg.to_state_graph(),
                          name);
    for (std::size_t r = 0; r < graphs.size(); ++r)
      expect_matches_oracles(graphs[r],
                             name + " revision " + std::to_string(r));
    revisions += static_cast<int>(graphs.size());
  }
  EXPECT_GT(revisions, 32);
}

TEST(SgOracle, GeneratorFamiliesAndRandomStgs) {
  const std::vector<std::pair<std::string, Stg>> families = {
      {"pipeline3", bench::make_pipeline(3)},
      {"parallelizer4", bench::make_parallelizer(4)},
      {"seq_chain3", bench::make_seq_chain(3)},
      {"choice_mixer3", bench::make_choice_mixer(3)},
      {"shared_out3", bench::make_shared_out(3)},
      {"combo2x2", bench::make_combo(2, 2)},
      {"hazard", bench::make_hazard()},
      {"ring4", bench::make_ring(4)},
      {"tree2", bench::make_tree(2)},
      {"csc_ring3", bench::make_csc_ring(3)},
      {"csc_diamond3x2", bench::make_csc_diamond_ring(3, 2)},
  };
  for (const auto& [name, stg] : families)
    expect_variants_match(stg.to_state_graph(), name);
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    expect_variants_match(bench::make_random_stg(seed).to_state_graph(),
                          "random " + std::to_string(seed), 4);
}

TEST(SgOracle, ChangedArcsBreakDeterminismAndPersistency) {
  // The variants must exercise the failing paths, with their messages.
  int determinism = 0, persistency = 0;
  for (const std::string name : {"vbe10b", "alloc-outbound", "mr0", "half"}) {
    const auto [d, p] = expect_variants_match(
        bench::suite_benchmark(name).stg.to_state_graph(), name, 40);
    determinism += d;
    persistency += p;
  }
  EXPECT_GT(determinism, 0);
  EXPECT_GT(persistency, 0);
}

}  // namespace
}  // namespace sitm
