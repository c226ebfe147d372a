// Table 1 as a regression gate: every data/benchmarks spec at i=2/3/4
// through the full Flow (lint and check on) must reproduce the QoR and the
// Verilog recorded in perfbench/golden/table1.json — ok, literals, C
// elements, inserted signals (CSC + map) and the FNV-1a digest of the
// emitted Verilog.  Any change to what the flow produces shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>

#include "benchlib/suite.hpp"
#include "flow/flow.hpp"
#include "netlist/writers.hpp"
#include "stg/load.hpp"
#include "util/json.hpp"

#ifndef SITM_SOURCE_DIR
#define SITM_SOURCE_DIR "."
#endif

namespace sitm {
namespace {

const std::filesystem::path kRoot(SITM_SOURCE_DIR);

struct Outcome {
  bool ok = false;
  long literals = 0;
  long c_elements = 0;
  long signals_inserted = 0;
  std::string verilog_fnv64;

  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& o, std::ostream* os) {
  *os << "{ok=" << o.ok << " literals=" << o.literals
      << " c_elements=" << o.c_elements
      << " signals_inserted=" << o.signals_inserted
      << " verilog=" << o.verilog_fnv64 << "}";
}

std::string fnv1a64_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The golden file by label ("<spec>/i<N>").
const std::map<std::string, Outcome>& golden() {
  static const std::map<std::string, Outcome> table = [] {
    std::map<std::string, Outcome> out;
    const Json j = Json::parse(
        slurp_file((kRoot / "perfbench" / "golden" / "table1.json").string()));
    for (const Json& f : j.find("flows")->items()) {
      Outcome o;
      o.ok = f.find("ok")->bool_value();
      o.literals = static_cast<long>(f.find("literals")->number());
      o.c_elements = static_cast<long>(f.find("c_elements")->number());
      o.signals_inserted =
          static_cast<long>(f.find("signals_inserted")->number());
      o.verilog_fnv64 = f.find("verilog_fnv64")->string_value();
      out[f.find("label")->string_value()] = o;
    }
    return out;
  }();
  return table;
}

Outcome run(const std::string& text, int max_literals) {
  FlowOptions opts;
  opts.lint = true;
  opts.check = true;
  opts.mapper.library.max_literals = max_literals;
  Flow flow(opts);
  const FlowReport report = flow.run_string(text);
  Outcome o;
  o.ok = report.ok;
  EXPECT_TRUE(report.ok) << report.failure;
  const FlowContext& ctx = flow.context();
  if (!report.ok || !ctx.netlist) return o;
  o.literals = ctx.netlist->total_literals();
  o.c_elements = ctx.netlist->num_c_elements();
  o.signals_inserted = static_cast<long>(
      report.stage(Stage::kCsc).metric_value("signals_inserted").value_or(0) +
      report.stage(Stage::kMap).metric_value("signals_inserted").value_or(0));
  o.verilog_fnv64 =
      fnv1a64_hex(write_verilog_string(*ctx.netlist, ctx.name));
  return o;
}

TEST(Table1GoldenFile, CoversEveryCorpusSpecAtEveryLibrarySize) {
  EXPECT_EQ(golden().size(), bench::suite_names().size() * 3);
}

class Table1Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Table1Golden, MatchesGoldenFile) {
  const std::string& name = GetParam();
  const std::string text =
      slurp_file((kRoot / "data" / "benchmarks" / (name + ".g")).string());
  for (const int i : {2, 3, 4}) {
    const std::string label = name + "/i" + std::to_string(i);
    const auto it = golden().find(label);
    ASSERT_NE(it, golden().end()) << label << " missing from the golden file";
    EXPECT_EQ(run(text, i), it->second) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Table1Golden, ::testing::ValuesIn(bench::suite_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

}  // namespace
}  // namespace sitm
