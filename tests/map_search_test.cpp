// The map stage's search decisions, pinned per corpus spec and library
// size: how many candidates each Table-1 run fully evaluated, and how many
// of those the best-first search abandoned, at one map thread.  The
// evaluated set (the first max_full_evals candidates whose insertion
// verifies) fixes `resyntheses`, which no change to the bound or the order
// may move.  `resyntheses_pruned` counts the evaluated candidates that did
// not resynthesize to the end: abandoned by the bound part way, or never
// started because the queue's head could no longer win.  It is the count
// of the lower-bound-ordered search; the rank-order search before it
// abandoned fewer (326 against 345 at i=2) because it kept resynthesizing
// candidates that a later one beat.  Checked on a direct technology_map
// call and through the Flow's map-stage report, which must also carry the
// mapper's count of per-signal syntheses, minimizations and built
// candidate graphs.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"

namespace sitm {
namespace {

struct Search {
  long resyntheses = 0;
  long resyntheses_pruned = 0;
};

/// {resyntheses, resyntheses_pruned} at i = 2, 3, 4.
const std::map<std::string, std::array<Search, 3>> kSearch = {
    {"alloc-outbound", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"chu133", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"chu150", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"converta", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"dff", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"ebergen", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"half", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"hazard", {{{3, 2}, {0, 0}, {0, 0}}}},
    {"master-read", {{{18, 16}, {12, 11}, {12, 11}}}},
    {"mmu", {{{30, 27}, {23, 21}, {12, 10}}}},
    {"mp-forward-pkt", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"mr0", {{{42, 38}, {35, 32}, {24, 21}}}},
    {"mr1", {{{30, 27}, {23, 21}, {12, 10}}}},
    {"nak-pa", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"nowick", {{{10, 9}, {0, 0}, {0, 0}}}},
    {"pe-rcv-ifc", {{{22, 20}, {12, 11}, {0, 0}}}},
    {"pe-send-ifc", {{{42, 38}, {24, 22}, {24, 22}}}},
    {"ram-read-sbuf", {{{11, 10}, {11, 10}, {0, 0}}}},
    {"rcv-setup", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"rlm", {{{6, 5}, {0, 0}, {0, 0}}}},
    {"sbuf-ram-write", {{{11, 10}, {11, 10}, {0, 0}}}},
    {"sbuf-send-ctl", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"sbuf-send-pkt2", {{{10, 9}, {0, 0}, {0, 0}}}},
    {"seq-mix", {{{11, 10}, {11, 10}, {0, 0}}}},
    {"seq4", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"trimos-send", {{{18, 16}, {12, 11}, {12, 11}}}},
    {"tsend-bm", {{{30, 27}, {12, 11}, {12, 11}}}},
    {"vbe10b", {{{54, 49}, {36, 33}, {36, 33}}}},
    {"vbe5b", {{{6, 5}, {0, 0}, {0, 0}}}},
    {"vbe5c", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"vbe6a", {{{0, 0}, {0, 0}, {0, 0}}}},
    {"wrdatab", {{{30, 27}, {23, 21}, {12, 10}}}},
};

class MapSearch : public ::testing::TestWithParam<std::string> {};

TEST(MapSearchTable, CoversEveryCorpusSpec) {
  EXPECT_EQ(kSearch.size(), bench::suite_names().size());
}

TEST_P(MapSearch, ResynthesesMatchTheTable) {
  const std::string& name = GetParam();
  const auto row = kSearch.find(name);
  ASSERT_NE(row, kSearch.end()) << name << " missing from the table";
  Spec spec;
  spec.name = name;
  spec.format = SpecFormat::kG;
  spec.stg = bench::suite_benchmark(name).stg;
  for (const int i : {2, 3, 4}) {
    const std::string label = name + "/i" + std::to_string(i);
    const Search& want = row->second[static_cast<std::size_t>(i - 2)];
    FlowOptions opts;
    opts.mapper.library.max_literals = i;
    opts.mapper.threads = 1;
    opts.stop_after = Stage::kMap;
    Flow flow(opts);
    const FlowReport report = flow.run_spec(spec);
    ASSERT_TRUE(report.ok) << label << ": " << report.failure;
    const StageReport& map = report.stage(Stage::kMap);
    EXPECT_EQ(map.metric_value("resyntheses"),
              static_cast<double>(want.resyntheses))
        << label;
    EXPECT_EQ(map.metric_value("resyntheses_pruned"),
              static_cast<double>(want.resyntheses_pruned))
        << label;

    ASSERT_TRUE(flow.context().synth_sg) << label;
    const MapResult direct =
        technology_map(*flow.context().synth_sg, opts.mapper);
    EXPECT_EQ(direct.resyntheses, want.resyntheses) << label;
    EXPECT_EQ(direct.resyntheses_pruned, want.resyntheses_pruned) << label;
    EXPECT_EQ(map.metric_value("signals_resynthesized"),
              static_cast<double>(direct.signals_resynthesized))
        << label;
    EXPECT_EQ(map.metric_value("minimizations"),
              static_cast<double>(direct.minimizations))
        << label;
    // Only the candidates the search started were built, and every one it
    // finished was started.
    EXPECT_EQ(map.metric_value("graphs_materialized"),
              static_cast<double>(direct.graphs_materialized))
        << label;
    EXPECT_LE(direct.graphs_materialized, want.resyntheses) << label;
    EXPECT_GE(direct.graphs_materialized,
              want.resyntheses - want.resyntheses_pruned)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, MapSearch, ::testing::ValuesIn(bench::suite_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace sitm
