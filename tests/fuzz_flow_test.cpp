// Fuzz regression + randomized end-to-end smoke.
//
// Part 1 — deterministic corpus replay: every input in fuzz/corpus/ (seed
// specs plus the triggering input of each fixed fuzzing finding) is pushed
// through the shared fuzz entry (fuzz/fuzz_parse_impl.hpp) on every tier-1
// run.  A finding fixed once stays fixed without a fuzzer in the loop.
//
// Part 2 — randomized pipeline smoke: random specifications through the
// complete flow (reachability -> synthesis -> mapping -> gate-level
// verification -> observational equivalence), across seeds and library
// sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "../fuzz/fuzz_parse_impl.hpp"
#include "benchlib/random_stg.hpp"
#include "core/mapper.hpp"
#include "netlist/si_verify.hpp"
#include "netlist/tech_decomp.hpp"
#include "sg/properties.hpp"
#include "stg/stg.hpp"
#include "support/observe.hpp"

namespace sitm {
namespace {

// ---- Part 1: fuzz/corpus regression replay -------------------------------

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::filesystem::path dir =
      std::filesystem::path(SITM_SOURCE_DIR) / "fuzz" / "corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

class FuzzCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCorpus, Replays) {
  std::ifstream in(GetParam(), std::ios::binary);
  ASSERT_TRUE(in.is_open()) << GetParam();
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  // The assertion is "no escape": fuzz_one must contain every input in the
  // corpus — typed rejection or clean acceptance, never a crash/UB/throw
  // of anything outside the sitm::Error taxonomy.
  EXPECT_EQ(fuzz::fuzz_one(reinterpret_cast<const std::uint8_t*>(
                               bytes.data()),
                           bytes.size()),
            0);
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzCorpus,
                         ::testing::ValuesIn(corpus_files()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name =
                               std::filesystem::path(i.param).filename();
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

// ---- Part 2: randomized full-pipeline smoke ------------------------------

struct FuzzCase {
  std::uint64_t seed;
  int library;
};

class FuzzFlow : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzFlow, FullPipeline) {
  const auto [seed, library] = GetParam();
  bench::RandomStgOptions gen;
  gen.min_signals = 5;
  gen.max_signals = 9;
  const Stg stg = bench::make_random_stg(seed, gen);
  StateGraph sg = stg.to_state_graph();
  sg.prune_unreachable();
  ASSERT_TRUE(check_implementability(sg));

  MapperOptions opts;
  opts.library.max_literals = library;
  const MapResult result = technology_map(sg, opts);
  ASSERT_TRUE(result.implementable)
      << "seed " << seed << " lib " << library << ": " << result.failure;

  // Library constraint honoured.
  for (const auto& synth : result.syntheses)
    EXPECT_LE(synth.complexity, library) << "seed " << seed;

  // Gate-level speed independence.
  const Netlist netlist = result.build_netlist();
  const SiVerifyResult verify = verify_speed_independence(netlist);
  EXPECT_TRUE(verify.ok) << "seed " << seed << ": " << verify.why;

  // Observable behaviour unchanged.
  const auto equivalent = observationally_equivalent(sg, *result.sg);
  EXPECT_TRUE(equivalent.equivalent) << "seed " << seed << ": "
                                     << equivalent.why;

  // The cost tuple decreased monotonically through the steps.
  for (std::size_t i = 1; i < result.steps.size(); ++i)
    EXPECT_TRUE(result.steps[i].before == result.steps[i - 1].after ||
                result.steps[i].before < result.steps[i - 1].after)
        << "seed " << seed;
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    cases.push_back(FuzzCase{seed, 2});
  for (std::uint64_t seed = 11; seed <= 16; ++seed)
    cases.push_back(FuzzCase{seed, 3});
  for (std::uint64_t seed = 17; seed <= 20; ++seed)
    cases.push_back(FuzzCase{seed, 4});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFlow, ::testing::ValuesIn(fuzz_cases()),
                         [](const ::testing::TestParamInfo<FuzzCase>& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_lib" + std::to_string(info.param.library);
                         });

}  // namespace
}  // namespace sitm
