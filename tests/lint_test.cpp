// sitm lint: every rule fires on a golden bad spec, the whole Table-1
// benchmark corpus lints clean, the JSON rendering is stable, and the flow
// /serve integration rejects lint-errored specs typed (`spec`) at the
// reachability gate — before any state graph is built.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "serve/server.hpp"
#include "stg/lint.hpp"
#include "stg/load.hpp"
#include "util/json.hpp"

namespace sitm {
namespace {

bool has(const LintReport& report, LintRule rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [rule](const LintDiagnostic& d) { return d.rule == rule; });
}

LintReport lint_text(const std::string& text,
                     SpecFormat format = SpecFormat::kG) {
  return lint_spec(load_spec_string(text, format, "lint_test"));
}

/// A well-formed 4-phase handshake: the clean baseline every golden bad
/// spec below is a corruption of.
const char* kCleanSpec =
    ".model clean\n"
    ".inputs a\n"
    ".outputs b\n"
    ".graph\n"
    "a+ b+\n"
    "b+ a-\n"
    "a- b-\n"
    "b- a+\n"
    ".marking { <b-,a+> }\n"
    ".end\n";

TEST(Lint, CleanSpecHasNoDiagnostics) {
  const LintReport report = lint_text(kCleanSpec);
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.first_error(), "");
}

// ---- one golden bad spec per rule ----------------------------------------

TEST(Lint, AlternationOnePolaritySignalIsAnError) {
  // `b` only ever rises: it can never return to its initial value.
  const LintReport report = lint_text(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- a+\n"
      ".marking { <a-,a+> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kAlternation));
  EXPECT_FALSE(report.ok());
}

TEST(Lint, AlternationSamePolaritySuccessionIsAWarning) {
  // a+ -> (place) -> a+/2 chains two rising edges of `a` directly.
  const LintReport report = lint_text(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ a+/2\na+/2 b+\nb+ a-\na- a-/2\na-/2 b-\nb- a+\n"
      ".marking { <b-,a+> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kAlternation));
  EXPECT_TRUE(report.ok()) << "succession is a heuristic: warning only";
}

TEST(Lint, DanglingArcEmptyPresetIsAnError) {
  // `b+` has no predecessors: enabled forever from the start.
  const LintReport report = lint_text(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "b+ a+\na+ b-\nb- a-\na- b-/2\nb-/2 a+/2\n"
      ".marking { <a-,b-/2> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kDanglingArc));
  EXPECT_FALSE(report.ok());
}

TEST(Lint, DuplicateArcIsAnError) {
  // Duplicates need an explicit place: the .g reader folds repeated
  // transition->transition pairs into one shared implicit place, so
  // "a+ b+ b+" is NOT a duplicate arc — "p1 b+ b+" is.
  const LintReport report = lint_text(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ p1\np1 b+ b+\nb+ a-\na- b-\nb- a+\n"
      ".marking { <b-,a+> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kDuplicateArc));
  EXPECT_FALSE(report.ok());
}

TEST(Lint, UnreachableTransitionIsAnError) {
  // The free+/free- cycle carries no token in the initial marking: the
  // optimistic closure never enables either edge.
  const LintReport report = lint_text(
      ".model bad\n.inputs a free\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      "free+ free-\nfree- free+\n"
      ".marking { <b-,a+> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kUnreachable));
  EXPECT_FALSE(report.ok());
}

TEST(Lint, IdleInputIsAWarning) {
  const LintReport report = lint_text(
      ".model bad\n.inputs a idle\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      ".marking { <b-,a+> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kIdleInput));
  EXPECT_TRUE(report.ok());
}

TEST(Lint, EmptyMarkingIsAnError) {
  const LintReport report = lint_text(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      ".marking { }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kUnsafeMarking));
  EXPECT_FALSE(report.ok());
  // The whole net is also token-free, so the closure finds every
  // transition dead: both rules should name the problem.
  EXPECT_TRUE(has(report, LintRule::kUnreachable));
}

TEST(Lint, UnconstrainedOutputIsAWarning) {
  // `b`'s only transitions are triggered by `b` itself: it free-runs.
  const LintReport report = lint_text(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ a-\na- a+\nb+ b-\nb- b+\n"
      ".marking { <a-,a+> <b-,b+> }\n.end\n");
  EXPECT_TRUE(has(report, LintRule::kUnconstrainedOutput));
  EXPECT_TRUE(report.ok());
}

TEST(Lint, JsonRenderingCarriesEveryDiagnostic) {
  const LintReport report = lint_text(
      ".model bad\n.inputs a free\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      "free+ free-\nfree- free+\n"
      ".marking { <b-,a+> }\n.end\n");
  const Json j = report.to_json();
  EXPECT_FALSE(j.find("ok")->bool_value());
  EXPECT_EQ(j.find("errors")->number(), report.errors);
  EXPECT_EQ(j.find("warnings")->number(), report.warnings);
  ASSERT_NE(j.find("diagnostics"), nullptr);
  EXPECT_EQ(j.find("diagnostics")->items().size(),
            report.diagnostics.size());
  for (const auto& d : j.find("diagnostics")->items()) {
    EXPECT_FALSE(d.find("rule")->string_value().empty());
    EXPECT_FALSE(d.find("severity")->string_value().empty());
    EXPECT_FALSE(d.find("message")->string_value().empty());
  }
}

TEST(Lint, RuleAndSeverityNamesAreStable) {
  EXPECT_STREQ(lint_rule_name(LintRule::kAlternation), "alternation");
  EXPECT_STREQ(lint_rule_name(LintRule::kUnconstrainedOutput),
               "unconstrained-output");
  EXPECT_STREQ(lint_severity_name(LintSeverity::kError), "error");
  EXPECT_STREQ(lint_severity_name(LintSeverity::kWarning), "warning");
}

// ---- the shipped corpus lints clean --------------------------------------

TEST(Lint, EntireBenchmarkCorpusLintsClean) {
  const std::vector<std::string> files =
      collect_spec_files(std::string(SITM_SOURCE_DIR) + "/data/benchmarks");
  ASSERT_FALSE(files.empty());
  for (const std::string& path : files) {
    const LintReport report = lint_spec(load_spec_file(path));
    EXPECT_TRUE(report.clean())
        << path << ":\n" << report.to_json().dump(2);
  }
}

// ---- flow / serve integration --------------------------------------------

TEST(Lint, FlowRejectsLintErrorsTypedAtTheReachabilityGate) {
  FlowOptions opts;
  opts.lint = true;
  Flow flow(opts);
  const FlowReport report = flow.run_string(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      ".marking { }\n.end\n");
  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.failed_stage.has_value());
  EXPECT_EQ(*report.failed_stage, Stage::kReachability);
  EXPECT_EQ(report.failure_kind, FailureKind::kSpec);
  EXPECT_NE(report.failure.find("lint"), std::string::npos)
      << report.failure;
  EXPECT_EQ(flow.context().sg, nullptr)
      << "the lint gate must reject before any state graph is built";
}

TEST(Lint, FlowSurfacesWarningsWithoutRejecting) {
  FlowOptions opts;
  opts.lint = true;
  Flow flow(opts);
  const FlowReport report = flow.run_string(
      ".model warn\n.inputs a idle\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      ".marking { <b-,a+> }\n.end\n");
  EXPECT_TRUE(report.ok) << report.failure;
  const StageReport& sr = report.stage(Stage::kReachability);
  bool lint_warning = false;
  for (const std::string& w : sr.warnings)
    if (w.find("lint[idle-input]") != std::string::npos) lint_warning = true;
  EXPECT_TRUE(lint_warning);
}

TEST(Lint, LintOffLetsTheSameSpecThroughTheGate) {
  FlowOptions opts;
  opts.lint = false;
  Flow flow(opts);
  const FlowReport report = flow.run_string(
      ".model bad\n.inputs a\n.outputs b\n.graph\n"
      "a+ b+\nb+ a-\na- b-\nb- a+\n"
      ".marking { }\n.end\n");
  // Without the gate the empty marking still fails — but deeper in, with
  // whatever diagnosis the reachability stage produces.  The lint flag only
  // changes *where and how typed* the rejection happens.
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failure.find("lint"), std::string::npos);
}

TEST(Lint, ServeRejectsLintErrorsBeforeStateGraphConstruction) {
  serve::ServeOptions so;
  so.flow.lint = true;
  serve::ServeEngine engine(so);
  Json j = Json::object();
  j.set("id", Json("bad"));
  j.set("spec", Json(".model bad\n.inputs a\n.outputs b\n.graph\n"
                     "a+ b+\nb+ a-\na- b-\nb- a+\n"
                     ".marking { }\n.end\n"));
  const Json resp = Json::parse(engine.handle_line(j.dump(0)));
  EXPECT_EQ(resp.find("status")->string_value(), "failed");
  const Json* report = resp.find("result")->find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("failure_kind")->string_value(), "spec");
  EXPECT_NE(report->find("failure")->string_value().find("lint"),
            std::string::npos);
  // The reachability stage itself must not have run its body to completion:
  // no states were ever enumerated.
  const Json* stages = report->find("stages");
  ASSERT_NE(stages, nullptr);
}

TEST(Lint, ServeLintOptionIsPerRequest) {
  serve::ServeOptions so;
  so.flow.lint = true;
  serve::ServeEngine engine(so);
  Json j = Json::object();
  j.set("id", Json("nolint"));
  j.set("spec", Json(".model bad\n.inputs a\n.outputs b\n.graph\n"
                     "a+ b+\nb+ a-\na- b-\nb- a+\n"
                     ".marking { }\n.end\n"));
  Json opts = Json::object();
  opts.set("lint", Json(false));
  j.set("options", std::move(opts));
  const Json resp = Json::parse(engine.handle_line(j.dump(0)));
  EXPECT_EQ(resp.find("status")->string_value(), "failed");
  EXPECT_EQ(resp.find("result")->find("report")->find("failure")
                ->string_value().find("lint"),
            std::string::npos)
      << "per-request lint=false must bypass the gate";
}

}  // namespace
}  // namespace sitm
