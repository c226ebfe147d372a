// Round-trip every suite benchmark through both text formats — broad I/O
// coverage.

#include <gtest/gtest.h>

#include "benchlib/suite.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "stg/g_io.hpp"

namespace sitm {
namespace {

class SuiteRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteRoundTrip, GFormat) {
  const auto entry = bench::suite_benchmark(GetParam());
  const std::string text = write_g_string(entry.stg, entry.name);
  std::string name;
  const Stg back = read_g_string(text, &name);
  EXPECT_EQ(name, entry.name);
  EXPECT_EQ(back.num_signals(), entry.stg.num_signals());
  EXPECT_EQ(back.num_transitions(), entry.stg.num_transitions());

  const StateGraph original = entry.stg.to_state_graph();
  const StateGraph reparsed = back.to_state_graph();
  EXPECT_EQ(reparsed.num_states(), original.num_states());
  EXPECT_EQ(reparsed.num_arcs(), original.num_arcs());
  EXPECT_TRUE(check_implementability(reparsed));
}

TEST_P(SuiteRoundTrip, SgFormat) {
  const auto entry = bench::suite_benchmark(GetParam());
  const StateGraph original = entry.stg.to_state_graph();
  const StateGraph back = read_sg_string(write_sg_string(original, entry.name));
  EXPECT_EQ(back.num_states(), original.num_states());
  EXPECT_EQ(back.num_arcs(), original.num_arcs());
  EXPECT_EQ(back.code(back.initial()), original.code(original.initial()));
  EXPECT_TRUE(check_implementability(back));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteRoundTrip,
                         ::testing::ValuesIn(bench::suite_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace sitm
