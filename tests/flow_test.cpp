// The staged Flow engine: stage sequencing, shared-context artifact
// ownership, stop_after / skip controls, structured reports and their JSON
// serialization, the shared spec loader, and the parallel batch driver.

#include <gtest/gtest.h>

#include <filesystem>

#include "benchlib/suite.hpp"
#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "sg/sg_io.hpp"
#include "stg/g_io.hpp"
#include "util/error.hpp"
#include "util/scheduler.hpp"

#ifndef SITM_SOURCE_DIR
#define SITM_SOURCE_DIR "."
#endif

namespace sitm {
namespace {

/// Two-phase ring with a CSC conflict (phases share the all-zero code).
const char* kCscConflictSpec = R"(.model twophase
.outputs a b c d
.graph
a+ b+
b+ a-
a- b-
b- c+
c+ d+
d+ c-
c- d-
d- a+
.marking { <d-,a+> }
.end
)";

/// Free output choice: x+ and y+ compete, violating output persistency.
const char* kNonPersistentSpec = R"(.model choice
.outputs x y
.graph
p0 x+ y+
x+ x-
y+ y-
x- p0
y- p0
.marking { p0 }
.end
)";

std::string corpus_dir() {
  return (std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks")
      .string();
}

TEST(Flow, FullSequenceThroughCscAndMap) {
  FlowOptions opts;
  opts.mapper.library.max_literals = 2;
  opts.capture_emitted = true;
  opts.check = true;  // opt-in stage; on here so the full sequence runs
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.name, "twophase");

  for (const Stage s : kAllStages)
    EXPECT_TRUE(report.stage(s).ran) << stage_name(s);

  const FlowContext& ctx = flow.context();
  EXPECT_EQ(report.stage(Stage::kReachability).metric_value("states"),
            8.0);  // 4-signal ring: 8 states
  EXPECT_GT(*report.stage(Stage::kProperties)
                 .metric_value("csc_conflict_pairs"),
            0.0);
  ASSERT_TRUE(ctx.csc.has_value());
  EXPECT_GE(ctx.csc->signals_inserted, 1);
  EXPECT_EQ(report.stage(Stage::kCsc).metric_value("signals_inserted"),
            static_cast<double>(ctx.csc->signals_inserted));
  // The csc stage reused the properties stage's cached analysis and left a
  // fresh conflict-free cache for the current revision.
  ASSERT_TRUE(ctx.csc_analysis.has_value());
  EXPECT_EQ(ctx.csc_analysis->conflict_pairs, 0);

  ASSERT_TRUE(ctx.synth_netlist.has_value());
  ASSERT_TRUE(ctx.mapped.has_value());
  ASSERT_TRUE(ctx.netlist.has_value());
  EXPECT_LE(ctx.netlist->max_gate_complexity(), 2);
  ASSERT_TRUE(ctx.verify.has_value());
  EXPECT_TRUE(ctx.verify->ok) << ctx.verify->why;
  EXPECT_FALSE(ctx.emitted_verilog.empty());
  EXPECT_FALSE(ctx.emitted_sg.empty());

  // Stage wall times are measured.
  EXPECT_GE(report.stage(Stage::kSynth).wall_ms, 0.0);
  EXPECT_GT(report.total_ms, 0.0);
}

TEST(Flow, StopAfterLeavesLaterStagesUnrun) {
  FlowOptions opts;
  opts.stop_after = Stage::kSynth;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_TRUE(report.stage(Stage::kSynth).ran);
  for (const Stage s : {Stage::kDecomp, Stage::kMap, Stage::kVerify,
                        Stage::kEmit}) {
    EXPECT_FALSE(report.stage(s).ran) << stage_name(s);
    EXPECT_FALSE(report.stage(s).skipped) << stage_name(s);
  }
  // The context still owns everything produced up to the stop point.
  EXPECT_TRUE(flow.context().synth_netlist.has_value());
  EXPECT_FALSE(flow.context().mapped.has_value());
  EXPECT_FALSE(flow.context().verify.has_value());
}

TEST(Flow, SkipMapVerifiesUnconstrainedNetlist) {
  FlowOptions opts;
  opts.set_skip(Stage::kDecomp);
  opts.set_skip(Stage::kMap);
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_TRUE(report.stage(Stage::kDecomp).skipped);
  EXPECT_TRUE(report.stage(Stage::kMap).skipped);
  EXPECT_FALSE(report.stage(Stage::kMap).ran);
  EXPECT_TRUE(report.stage(Stage::kVerify).ran);

  const FlowContext& ctx = flow.context();
  EXPECT_FALSE(ctx.mapped.has_value());
  EXPECT_FALSE(ctx.decomp.has_value());
  // The final netlist is the unconstrained synthesis.
  ASSERT_TRUE(ctx.netlist.has_value());
  EXPECT_EQ(ctx.netlist->to_string(), ctx.synth_netlist->to_string());
  ASSERT_TRUE(ctx.verify.has_value());
  EXPECT_TRUE(ctx.verify->ok) << ctx.verify->why;
}

TEST(Flow, SkippingSynthAutoSkipsDependents) {
  FlowOptions opts;
  opts.set_skip(Stage::kSynth);
  opts.set_skip(Stage::kMap);
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_TRUE(report.stage(Stage::kSynth).skipped);
  // decomp and verify have nothing to work on: auto-skipped with warnings.
  EXPECT_TRUE(report.stage(Stage::kDecomp).skipped);
  EXPECT_FALSE(report.stage(Stage::kDecomp).warnings.empty());
  EXPECT_TRUE(report.stage(Stage::kVerify).skipped);
  EXPECT_FALSE(report.stage(Stage::kVerify).warnings.empty());
  // emit still runs (the SG itself is emittable).
  EXPECT_TRUE(report.stage(Stage::kEmit).ran);
}

TEST(Flow, EmitStillRunsAfterVerifyFailure) {
  FlowOptions opts;
  opts.verify_max_states = 1;  // force the composite exploration to fail
  opts.capture_emitted = true;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kVerify);
  // The failing netlist is still emitted for inspection.
  EXPECT_TRUE(report.stage(Stage::kEmit).ran);
  EXPECT_FALSE(flow.context().emitted_verilog.empty());
}

TEST(Flow, SynthThreadsMetricReportsResolvedWorkers) {
  FlowOptions opts;
  opts.mc.threads = 64;
  opts.stop_after = Stage::kSynth;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  // twophase + csc0: 5 non-input signals, so only 5 of the 64 requested
  // workers can ever run — the metric records the resolved count.
  EXPECT_EQ(report.stage(Stage::kSynth).metric_value("threads"), 5.0);
  EXPECT_EQ(report.stage(Stage::kSynth).metric_value("signals"), 5.0);
}

TEST(Flow, PropertyViolationFailsThePropertiesStage) {
  Flow flow;
  const FlowReport report = flow.run_string(kNonPersistentSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kProperties);
  EXPECT_FALSE(report.failure.empty());
  // All four SI metrics were still recorded before the failure.
  const auto& sr = report.stage(Stage::kProperties);
  ASSERT_TRUE(sr.metric_value("output_persistency").has_value());
  EXPECT_EQ(*sr.metric_value("consistency"), 1.0);
  // Later stages never ran.
  for (const Stage s : {Stage::kCsc, Stage::kSynth, Stage::kMap,
                        Stage::kVerify})
    EXPECT_FALSE(report.stage(s).ran) << stage_name(s);
}

TEST(Flow, UnmappableSpecFailsTheMapStage) {
  FlowOptions opts;
  opts.mapper.library.max_literals = 1;  // nothing nontrivial fits
  opts.mapper.max_insertions = 4;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kMap);
  // synth/decomp results survive the later failure.
  EXPECT_TRUE(flow.context().synth_netlist.has_value());
  EXPECT_FALSE(report.stage(Stage::kVerify).ran);
}

TEST(Flow, ReportSerializesToJson) {
  FlowOptions opts;
  opts.mc.threads = 2;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  const std::string json = report.to_json().dump(2);
  EXPECT_NE(json.find("\"name\": \"twophase\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\": \"synth\""), std::string::npos);
  EXPECT_NE(json.find("\"csc_conflict_pairs\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
  // Json escaping round-trip basics.
  EXPECT_EQ(Json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  // Failure reports carry the failed stage.
  Flow bad;
  const std::string bad_json =
      bad.run_string(kNonPersistentSpec).to_json().dump(2);
  EXPECT_NE(bad_json.find("\"failed_stage\": \"properties\""),
            std::string::npos)
      << bad_json;
}

TEST(Flow, JsonEscapePreservesNonAsciiBytes) {
  // Bytes >= 0x80 (UTF-8 warning text, signal names, file paths) must pass
  // through verbatim: with a signed char they used to sign-extend through
  // \u%04x into garbage like "￿ffe9".
  EXPECT_EQ(Json::escape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(Json::escape("\xe9"), "\xe9");  // lone high byte, still verbatim
  EXPECT_EQ(Json::escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(Json::escape("\x80").find("ffff"), std::string::npos);

  // Round trip through a report: non-ASCII warning text survives into the
  // dumped JSON byte for byte, control bytes as 4-digit escapes.
  FlowReport report;
  report.name = "sp\xc3\xa9" "c";
  report.stage(Stage::kSynth).warnings.push_back(
      "temp\xc3\xa9rature \xe2\x89\xa4 0\x01");
  const std::string json = report.to_json().dump(2);
  EXPECT_NE(json.find("\"sp\xc3\xa9" "c\""), std::string::npos) << json;
  EXPECT_NE(json.find("temp\xc3\xa9rature \xe2\x89\xa4 0\\u0001"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("ffff"), std::string::npos) << json;
}

TEST(Flow, RunSpecAndRunStateGraphRecordTheInputSpine) {
  // Pre-parsed suite entry.
  Spec spec;
  spec.name = "half";
  spec.stg = bench::suite_benchmark("half").stg;
  Flow flow;
  const FlowReport report = flow.run_spec(std::move(spec));
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_TRUE(report.stage(Stage::kLoad).ran);
  ASSERT_TRUE(report.stage(Stage::kLoad).metric_value("transitions"));

  // Explicit SG input.
  const StateGraph sg = bench::suite_benchmark("half").stg.to_state_graph();
  Spec sg_spec;
  sg_spec.name = "half-sg";
  sg_spec.format = SpecFormat::kSg;
  sg_spec.sg = sg;
  Flow flow2;
  const FlowReport report2 = flow2.run_spec(std::move(sg_spec));
  ASSERT_TRUE(report2.ok) << report2.failure;
  EXPECT_EQ(report2.name, "half-sg");
  EXPECT_EQ(report2.stage(Stage::kReachability).metric_value("states"),
            static_cast<double>(sg.num_states()));
}

// ----- shared loader ---------------------------------------------------

TEST(Loader, SniffsFormatFromExtensionAndContent) {
  const StateGraph sg = bench::suite_benchmark("half").stg.to_state_graph();
  const std::string sg_text = write_sg_string(sg, "half");
  // No extension: the .initial directive marks the .sg format.
  const Spec from_content = load_spec_string(sg_text);
  EXPECT_EQ(from_content.format, SpecFormat::kSg);
  ASSERT_TRUE(from_content.sg.has_value());
  EXPECT_EQ(from_content.sg->num_states(), sg.num_states());

  const Spec g_spec = load_spec_string(kCscConflictSpec);
  EXPECT_EQ(g_spec.format, SpecFormat::kG);
  ASSERT_TRUE(g_spec.stg.has_value());
  EXPECT_EQ(g_spec.name, "twophase");

  // Extension wins over content probing.
  EXPECT_EQ(sniff_spec_format("x.sg", kCscConflictSpec), SpecFormat::kSg);
  EXPECT_EQ(sniff_spec_format("x.g", sg_text), SpecFormat::kG);
}

TEST(Loader, LoadsCorpusFilesFromDisk) {
  const Spec spec = load_spec_file(corpus_dir() + "/vbe5b.g");
  EXPECT_EQ(spec.format, SpecFormat::kG);
  EXPECT_EQ(spec.name, "vbe5b");
  EXPECT_THROW(load_spec_file(corpus_dir() + "/does-not-exist.g"), Error);
}

// ----- parser location context ----------------------------------------

TEST(ParseErrors, GReaderReportsLineAndColumn) {
  const char* bad = ".model m\n.outputs a\n.graph\na+ zz+\n.marking { <a+,zz+> }\n.end\n";
  try {
    read_g_string(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_GT(e.column(), 1);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("zz+"), std::string::npos);
  }
}

TEST(ParseErrors, SgReaderReportsLineAndColumn) {
  const char* bad =
      ".model m\n.outputs a\n.graph\ns0 a+ s1\ns1 b- s0\n.initial s0 0\n.end\n";
  try {
    read_sg_string(bad);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 5);    // the arc with the unknown signal b
    EXPECT_EQ(e.column(), 4);  // ...and its event token "b-"
    EXPECT_NE(std::string(e.what()).find("line 5, col 4"), std::string::npos)
        << e.what();
  }
  try {
    read_sg_string(".model m\n.outputs a\n.graph\ns0 a+\n.end\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);  // graph line with the wrong arity
    EXPECT_EQ(e.column(), 1);
  }
  // The .initial code is pinpointed too (here: length != signal count).
  try {
    read_sg_string(
        ".model m\n.outputs a b\n.graph\ns0 a+ s1\ns1 a- s0\n"
        ".initial s0 011\n.end\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 6);
    EXPECT_EQ(e.column(), 13);  // the "011" token
  }
}

// ----- batch driver ----------------------------------------------------

TEST(Batch, SuiteSubsetDeterministicAcrossThreadCounts) {
  const std::vector<std::string> names = {"half", "hazard", "chu133",
                                          "vbe5c", "rcv-setup"};
  BatchOptions serial;
  serial.threads = 1;
  const BatchResult ref = run_batch_suite(names, serial);
  ASSERT_EQ(ref.items.size(), names.size());
  EXPECT_TRUE(ref.all_ok());

  for (const int threads : {2, 4}) {
    BatchOptions opts;
    opts.threads = threads;
    const BatchResult got = run_batch_suite(names, opts);
    ASSERT_EQ(got.items.size(), ref.items.size());
    for (std::size_t i = 0; i < got.items.size(); ++i) {
      EXPECT_EQ(got.items[i].label, ref.items[i].label);  // input order kept
      EXPECT_EQ(got.items[i].report.ok, ref.items[i].report.ok);
      // The work is deterministic even though the scheduling is not.
      EXPECT_EQ(got.items[i].report.stage(Stage::kSynth).metrics,
                ref.items[i].report.stage(Stage::kSynth).metrics)
          << got.items[i].label;
    }
  }
}

TEST(Batch, RunsSpecFilesFromDirectory) {
  const auto files = collect_spec_files(corpus_dir());
  EXPECT_EQ(files.size(), 32u);
  EXPECT_THROW(collect_spec_files(corpus_dir() + "/nope"), Error);

  // A cheap slice of the corpus through synth only.
  BatchOptions opts;
  opts.threads = 2;
  opts.flow.stop_after = Stage::kSynth;
  const std::vector<std::string> subset(files.begin(), files.begin() + 4);
  const BatchResult result = run_batch_files(subset, opts);
  EXPECT_TRUE(result.all_ok());
  EXPECT_EQ(result.num_ok, 4);
  for (const auto& item : result.items)
    EXPECT_FALSE(item.report.stage(Stage::kMap).ran) << item.label;
}

TEST(Batch, ZeroThreadsClampsToAtLeastOneWorker) {
  // 0 means "one per hardware core", and hardware_concurrency() may itself
  // report 0 ("unknown"): both must resolve to >= 1 worker, never to a
  // zero-width pool that would hang or skip the work.
  EXPECT_GE(resolve_worker_threads(0, 5), 1);
  EXPECT_LE(resolve_worker_threads(0, 5), 5);
  EXPECT_GE(resolve_worker_threads(-7, 5), 1);  // defensive, same clamp
  EXPECT_EQ(resolve_worker_threads(3, 0), 0);   // no work, no workers
  EXPECT_EQ(resolve_worker_threads(8, 3), 3);

  // End to end: --threads 0 at both pool levels still runs every item.
  BatchOptions opts;
  opts.threads = 0;
  opts.flow.mc.threads = 0;
  opts.flow.stop_after = Stage::kSynth;
  const BatchResult result = run_batch_suite({"half", "hazard"}, opts);
  EXPECT_EQ(result.num_ok, 2);
  EXPECT_TRUE(result.all_ok());
}

TEST(Batch, AggregateJsonAndFailureAccounting) {
  BatchOptions opts;
  opts.flow.stop_after = Stage::kSynth;
  int progress_calls = 0;
  opts.on_report = [&](const FlowReport&) { ++progress_calls; };
  // An unknown suite name fails its item but not the batch.
  const BatchResult result =
      run_batch_suite({"half", "definitely-not-a-benchmark"}, opts);
  EXPECT_EQ(progress_calls, 2);
  EXPECT_EQ(result.num_ok, 1);
  EXPECT_EQ(result.num_failed, 1);
  EXPECT_FALSE(result.all_ok());
  EXPECT_TRUE(result.items[0].report.ok);
  EXPECT_FALSE(result.items[1].report.ok);

  const std::string json = result.to_json().dump(2);
  EXPECT_NE(json.find("\"specs\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"half\""), std::string::npos);
}

}  // namespace
}  // namespace sitm
