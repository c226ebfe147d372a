// Tests for the benchmark generators, the random STG generator and the
// named Table-1 suite: every instance must be a valid input to the mapping
// flow.

#include <gtest/gtest.h>

#include <set>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "core/csc.hpp"
#include "sg/properties.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace sitm {
namespace {

TEST(Generators, PipelineValidAcrossSizes) {
  for (int n : {1, 2, 3, 4}) {
    const StateGraph sg = bench::make_pipeline(n).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "pipeline(" << n << ")";
    EXPECT_GT(sg.num_states(), 0u);
  }
}

TEST(Generators, ParallelizerValidAndWide) {
  for (int k : {1, 2, 3, 5, 7}) {
    const StateGraph sg = bench::make_parallelizer(k).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "parallelizer(" << k << ")";
    // k concurrent grants: the rising phase alone has 2^k states.
    EXPECT_GE(sg.num_states(), (1u << k));
  }
}

TEST(Generators, SeqChainValid) {
  for (int k : {1, 2, 4, 6}) {
    const StateGraph sg = bench::make_seq_chain(k).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "seq_chain(" << k << ")";
    // Purely sequential: states = number of events in the cycle.
    EXPECT_EQ(sg.num_states(), 2u * (static_cast<unsigned>(k) + 2));
  }
}

TEST(Generators, ChoiceMixerValid) {
  for (int k : {1, 2, 3, 4}) {
    const StateGraph sg = bench::make_choice_mixer(k).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "choice_mixer(" << k << ")";
    EXPECT_EQ(sg.num_states(), 1u + 3u * static_cast<unsigned>(k));
  }
}

TEST(Generators, SharedOutValid) {
  for (int k : {1, 2, 3}) {
    const StateGraph sg = bench::make_shared_out(k).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "shared_out(" << k << ")";
    EXPECT_EQ(sg.num_states(), 1u + 5u * static_cast<unsigned>(k));
  }
}

TEST(Generators, ComboValid) {
  for (auto [p, s] : {std::pair{2, 2}, {3, 2}, {2, 4}, {4, 3}}) {
    const StateGraph sg = bench::make_combo(p, s).to_state_graph();
    EXPECT_TRUE(check_implementability(sg))
        << "combo(" << p << "," << s << ")";
  }
}

TEST(Generators, RingValid) {
  for (int n : {1, 3, 6}) {
    const StateGraph sg = bench::make_ring(n).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "ring(" << n << ")";
    // Purely sequential wave: states = number of events in the cycle.
    EXPECT_EQ(sg.num_states(), 2u * (static_cast<unsigned>(n) + 1));
  }
}

TEST(Generators, TreeValidAndAlreadyImplementable) {
  for (int d : {1, 2, 3}) {
    const StateGraph sg = bench::make_tree(d).to_state_graph();
    EXPECT_TRUE(check_implementability(sg)) << "tree(" << d << ")";
  }
}

TEST(Generators, HazardMatchesPaperStructure) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  EXPECT_TRUE(check_implementability(sg));
  EXPECT_EQ(sg.num_signals(), 4);
  EXPECT_EQ(sg.input_signals().size(), 2u);
  // Concurrency between d+ and the a/c sequence: diamonds exist.
  EXPECT_FALSE(enumerate_diamonds(sg).empty());
}

TEST(Generators, CscDiamondRingConflictedAndConcurrent) {
  // The diamond ring must keep the plain ring's CSC conflicts (one per
  // segment-boundary pair) while adding real state diamonds — the insertion
  // planner's benchmark workload.  It stays speed-independent and
  // consistent, so resolve_csc accepts it.
  for (const auto& [segments, width] : {std::pair{2, 2}, {3, 3}, {3, 4}}) {
    const StateGraph sg =
        bench::make_csc_diamond_ring(segments, width).to_state_graph();
    const std::string label = "csc_diamond_ring(" +
                              std::to_string(segments) + "," +
                              std::to_string(width) + ")";
    EXPECT_TRUE(check_consistency(sg)) << label;
    EXPECT_TRUE(check_speed_independence(sg)) << label;
    EXPECT_FALSE(check_csc(sg)) << label;
    EXPECT_EQ(count_csc_conflicts(sg), segments * (segments - 1) / 2)
        << label;
    EXPECT_GE(enumerate_diamonds(sg).size(),
              static_cast<std::size_t>(width * (width - 1) / 2)) << label;
    const CscResult resolved = resolve_csc(sg);
    EXPECT_TRUE(resolved.resolved) << label << ": " << resolved.failure;
  }
}

TEST(Generators, BadParametersThrow) {
  EXPECT_THROW(bench::make_pipeline(0), Error);
  EXPECT_THROW(bench::make_parallelizer(0), Error);
  EXPECT_THROW(bench::make_seq_chain(0), Error);
  EXPECT_THROW(bench::make_choice_mixer(0), Error);
  EXPECT_THROW(bench::make_shared_out(0), Error);
  EXPECT_THROW(bench::make_combo(0, 1), Error);
  EXPECT_THROW(bench::make_ring(0), Error);
  EXPECT_THROW(bench::make_tree(0), Error);
  EXPECT_THROW(bench::make_tree(9), Error);
  EXPECT_THROW(bench::make_csc_diamond_ring(1, 2), Error);
  EXPECT_THROW(bench::make_csc_diamond_ring(2, 0), Error);
}

TEST(Suite, Has32Benchmarks) {
  EXPECT_EQ(bench::suite_names().size(), 32u);
}

TEST(Suite, EveryEntryIsImplementable) {
  for (auto& entry : bench::table1_suite()) {
    const StateGraph sg = entry.stg.to_state_graph();
    const auto result = check_implementability(sg);
    EXPECT_TRUE(result.ok) << entry.name << ": " << result.why;
  }
}

TEST(Suite, LookupByName) {
  const auto entry = bench::suite_benchmark("vbe10b");
  EXPECT_EQ(entry.name, "vbe10b");
  EXPECT_FALSE(entry.family.empty());
  EXPECT_THROW(bench::suite_benchmark("nonexistent"), Error);
}

TEST(Suite, NamesAreUnique) {
  auto names = bench::suite_names();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(RandomStg, EveryInstanceIsImplementable) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Stg stg = bench::make_random_stg(seed);
    const StateGraph sg = stg.to_state_graph();
    const auto check = check_implementability(sg);
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.why;
  }
}

TEST(RandomStg, DeterministicForSeed) {
  const Stg a = bench::make_random_stg(7);
  const Stg b = bench::make_random_stg(7);
  EXPECT_EQ(a.num_signals(), b.num_signals());
  EXPECT_EQ(a.num_transitions(), b.num_transitions());
  EXPECT_EQ(a.to_state_graph().num_states(), b.to_state_graph().num_states());
}

TEST(RandomStg, SeedsVaryTheShape) {
  std::set<std::size_t> sizes;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    sizes.insert(bench::make_random_stg(seed).to_state_graph().num_states());
  EXPECT_GT(sizes.size(), 3u);
}

TEST(RandomStg, RespectsSignalBudget) {
  bench::RandomStgOptions opts;
  opts.min_signals = 4;
  opts.max_signals = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Stg stg = bench::make_random_stg(seed, opts);
    EXPECT_GE(stg.num_signals(), 3);
    EXPECT_LE(stg.num_signals(), 12);  // small slack over the budget
  }
}

}  // namespace
}  // namespace sitm
