// The deterministic fault-injection harness (util/fault.hpp) and the
// robustness paths it drives: every stage's failure taxonomy, the CSC
// stage's best-so-far degradation, and the batch driver's watchdog,
// catch (...) arm and degraded retry.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "benchlib/generators.hpp"
#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "util/fault.hpp"

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

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::clear(); }
  void TearDown() override { fault::clear(); }
};

TEST_F(FaultTest, SpecParserRejectsMalformedEntries) {
  std::string error;
  EXPECT_TRUE(fault::configure("a.site:error,b.site:sleep:10@2", &error))
      << error;
  fault::clear();
  EXPECT_FALSE(fault::configure("a.site:frobnicate", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::configure("no-action-here", nullptr));
}

TEST_F(FaultTest, FiresExactlyOnceOnNthHit) {
  fault::arm("unit.site", fault::Action::kError, /*nth=*/3);
  fault::hit("unit.site");
  fault::hit("unit.site");
  EXPECT_FALSE(fault::fired("unit.site"));
  EXPECT_THROW(fault::hit("unit.site"), Error);
  EXPECT_TRUE(fault::fired("unit.site"));
  fault::hit("unit.site");  // after firing the site is inert again
  EXPECT_EQ(fault::hit_count("unit.site"), 4u);
}

struct StageFault {
  const char* site;
  Stage stage;
  fault::Action action;
  FailureKind kind;
};

TEST_F(FaultTest, EveryStageFailureIsTypedAndStopsTheFlow) {
  const StageFault matrix[] = {
      {"flow.load", Stage::kLoad, fault::Action::kInternal,
       FailureKind::kInternal},
      {"flow.reachability", Stage::kReachability, fault::Action::kBudget,
       FailureKind::kBudget},
      {"flow.properties", Stage::kProperties, fault::Action::kDeadline,
       FailureKind::kDeadline},
      {"flow.csc", Stage::kCsc, fault::Action::kCancel,
       FailureKind::kCancelled},
      {"flow.synth", Stage::kSynth, fault::Action::kError,
       FailureKind::kSpec},
      {"flow.decomp", Stage::kDecomp, fault::Action::kBadAlloc,
       FailureKind::kInternal},
      {"flow.map", Stage::kMap, fault::Action::kBudget, FailureKind::kBudget},
      {"flow.verify", Stage::kVerify, fault::Action::kInternal,
       FailureKind::kInternal},
      {"flow.emit", Stage::kEmit, fault::Action::kNonStd,
       FailureKind::kInternal},
  };
  for (const auto& f : matrix) {
    fault::clear();
    fault::arm(f.site, f.action);
    Flow flow;
    const FlowReport report = flow.run_string(kCscConflictSpec);
    ASSERT_FALSE(report.ok) << f.site;
    EXPECT_EQ(report.failed_stage, f.stage) << f.site;
    EXPECT_EQ(report.failure_kind, f.kind) << f.site;
    const StageReport& sr = report.stage(f.stage);
    EXPECT_FALSE(sr.ok) << f.site;
    EXPECT_EQ(sr.failure_kind, f.kind) << f.site;
    EXPECT_FALSE(sr.failure.empty()) << f.site;
    // Later stages never ran — except emit, which still runs after a
    // verify failure so the failing netlist can be inspected.
    for (int later = static_cast<int>(f.stage) + 1; later < kNumStages;
         ++later) {
      const Stage s = static_cast<Stage>(later);
      if (f.stage == Stage::kVerify && s == Stage::kEmit) {
        EXPECT_TRUE(report.stage(s).ran) << f.site;
        continue;
      }
      EXPECT_FALSE(report.stage(s).ran)
          << f.site << " -> " << stage_name(s);
    }
  }
}

TEST_F(FaultTest, CheckStageFaultIsTypedWhenEnabled) {
  // The check stage is opt-in, so its stage-entry site gets its own matrix
  // entry with a check-enabled flow (the shared loop above runs defaults).
  const StageFault matrix[] = {
      {"flow.check", Stage::kCheck, fault::Action::kError, FailureKind::kSpec},
      {"flow.check", Stage::kCheck, fault::Action::kCancel,
       FailureKind::kCancelled},
      {"check.gate", Stage::kCheck, fault::Action::kBudget,
       FailureKind::kBudget},
  };
  for (const auto& f : matrix) {
    fault::clear();
    fault::arm(f.site, f.action);
    FlowOptions opts;
    opts.check = true;
    Flow flow(opts);
    const FlowReport report = flow.run_string(kCscConflictSpec);
    ASSERT_FALSE(report.ok) << f.site;
    EXPECT_EQ(report.failed_stage, f.stage) << f.site;
    EXPECT_EQ(report.failure_kind, f.kind) << f.site;
    EXPECT_FALSE(report.stage(Stage::kVerify).ran) << f.site;
  }
}

TEST_F(FaultTest, ArmedCheckFaultIsInertWhenStageDisabled) {
  // A disabled check stage is skipped *before* its fault site: arming
  // flow.check must not trip a run that never asked for the stage.
  fault::arm("flow.check", fault::Action::kError);
  Flow flow;  // check off by default
  const FlowReport report = flow.run_string(kCscConflictSpec);
  EXPECT_TRUE(report.ok) << report.failure;
  EXPECT_TRUE(report.stage(Stage::kCheck).skipped);
  EXPECT_FALSE(fault::fired("flow.check"));
}

TEST_F(FaultTest, HotLoopSitesAreInstrumented) {
  // A budget fault at each governed hot-loop site must surface as a typed
  // failure of the owning stage, proving the loop actually polls.
  const StageFault matrix[] = {
      {"stg.to_state_graph", Stage::kReachability, fault::Action::kBudget,
       FailureKind::kBudget},
      {"csc.candidate", Stage::kCsc, fault::Action::kBudget,
       FailureKind::kBudget},
      {"synth.signal", Stage::kSynth, fault::Action::kBudget,
       FailureKind::kBudget},
      {"map.round", Stage::kMap, fault::Action::kDeadline,
       FailureKind::kDeadline},
  };
  for (const auto& f : matrix) {
    fault::clear();
    fault::arm(f.site, f.action);
    Flow flow;
    const FlowReport report = flow.run_string(kCscConflictSpec);
    ASSERT_FALSE(report.ok) << f.site;
    EXPECT_EQ(report.failed_stage, f.stage) << f.site;
    EXPECT_EQ(report.failure_kind, f.kind) << f.site;
  }
}

TEST_F(FaultTest, CscExhaustionUnderFailPolicyIsTyped) {
  // Trip at the very first scored candidate: nothing committable exists
  // yet, so the stage fails typed with the engine's explanation.
  fault::arm("csc.candidate", fault::Action::kBudget, /*nth=*/1);
  Flow flow;  // default policy: kFail
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kCsc);
  EXPECT_EQ(report.failure_kind, FailureKind::kBudget);
  ASSERT_TRUE(flow.context().csc.has_value());
  EXPECT_EQ(flow.context().csc->stopped, GuardStop::kBudget);
  EXPECT_EQ(flow.context().csc->signals_inserted, 0);
}

TEST_F(FaultTest, CscExhaustionCommitsBestSoFarInsertion) {
  // make_csc_ring(3) needs two insertions (97 candidates scored in full).
  // Tripping at candidate 2 exhausts the search mid-scan with one scored
  // candidate in hand: the engine still commits that best-so-far insertion
  // (degraded), and the stage failure reports the remaining conflicts —
  // with the partial resolution left inspectable in the context.
  Spec spec;
  spec.name = "csc_ring3";
  spec.format = SpecFormat::kSg;
  spec.sg = bench::make_csc_ring(3).to_state_graph();
  const int signals_before = spec.sg->num_signals();
  fault::arm("csc.candidate", fault::Action::kBudget, /*nth=*/2);
  FlowOptions opts;
  opts.on_budget = FlowOptions::OnBudget::kDegrade;
  Flow flow(opts);
  const FlowReport report = flow.run_spec(std::move(spec));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kCsc);
  EXPECT_EQ(report.failure_kind, FailureKind::kBudget);
  EXPECT_NE(report.failure.find("conflict pair(s) remain"), std::string::npos)
      << report.failure;
  const FlowContext& ctx = flow.context();
  ASSERT_TRUE(ctx.csc.has_value());
  EXPECT_TRUE(ctx.csc->degraded);
  EXPECT_EQ(ctx.csc->stopped, GuardStop::kBudget);
  EXPECT_EQ(ctx.csc->signals_inserted, 1);
  // The partial SG (with the committed latch) replaced the context SG.
  EXPECT_EQ(ctx.sg->num_signals(), signals_before + 1);
  EXPECT_EQ(report.stage(Stage::kCsc).metric_value("signals_inserted"), 1.0);
}

// ---- batch driver ------------------------------------------------------

/// A two-spec directory private to the running test: ctest runs the batch
/// tests as parallel processes, and a shared directory would let one test
/// rewrite the specs while another's batch reads them.
std::string write_spec_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   (std::string("sitm_fault_batch_") + info->name());
  std::filesystem::create_directories(dir);
  for (const char* name : {"one.g", "two.g"}) {
    std::ofstream out(dir / name);
    out << kCscConflictSpec;
  }
  return dir.string();
}

TEST_F(FaultTest, BatchSurvivesNonStandardException) {
  fault::arm("batch.item", fault::Action::kNonStd, /*nth=*/1);
  BatchOptions opts;
  opts.threads = 1;  // deterministic item order
  const BatchResult result =
      run_batch_files(collect_spec_files(write_spec_dir()), opts);
  ASSERT_EQ(result.items.size(), 2u);
  EXPECT_EQ(result.num_failed, 1);
  EXPECT_EQ(result.num_ok, 1);
  const FlowReport& bad = result.items[0].report;
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.failure_kind, FailureKind::kInternal);
  EXPECT_NE(bad.failure.find("non-standard"), std::string::npos);
  EXPECT_TRUE(result.items[1].report.ok);
}

TEST_F(FaultTest, BatchWatchdogMarksOverdueItemDeadline) {
  // The first item blocks 1 s at the synth stage entry without polling its
  // guard; the watchdog must cancel it past the 150 ms deadline and the
  // driver normalizes the failure to `deadline`.  (The margins are wide so
  // sanitizer builds don't push the healthy item over its own deadline.)
  fault::arm("flow.synth", fault::Action::kSleep, /*nth=*/1, /*arg=*/1000);
  BatchOptions opts;
  opts.threads = 1;
  opts.item_deadline_ms = 150;
  const BatchResult result =
      run_batch_files(collect_spec_files(write_spec_dir()), opts);
  ASSERT_EQ(result.items.size(), 2u);
  const FlowReport& overdue = result.items[0].report;
  EXPECT_FALSE(overdue.ok);
  EXPECT_EQ(overdue.failure_kind, FailureKind::kDeadline);
  ASSERT_TRUE(overdue.failed_stage.has_value());
  EXPECT_EQ(overdue.stage(*overdue.failed_stage).failure_kind,
            FailureKind::kDeadline);
  // The second item got its own fresh deadline window and finished.
  EXPECT_TRUE(result.items[1].report.ok) << result.items[1].report.failure;
}

TEST_F(FaultTest, BatchRetriesBudgetFailureWithDegradedOptions) {
  BatchOptions opts;
  opts.threads = 1;
  opts.retry_degraded = true;
  opts.flow.verify_max_states = 1;  // every verify attempt runs out
  const BatchResult result =
      run_batch_files(collect_spec_files(write_spec_dir()), opts);
  ASSERT_EQ(result.items.size(), 2u);
  for (const auto& item : result.items) {
    // Attempt 1 fails typed (kFail); attempt 2 degrades verify to
    // "unverified" and the item passes.
    EXPECT_TRUE(item.report.ok) << item.report.failure;
    EXPECT_EQ(item.attempts, 2);
    EXPECT_EQ(item.report.stage(Stage::kVerify).metric_value("unverified"),
              1.0);
  }
  // The retry count lands in the aggregate JSON.
  const std::string json = result.to_json().dump(0);
  EXPECT_NE(json.find("attempts"), std::string::npos);
}

TEST_F(FaultTest, BatchWithoutFaultsIsUnchanged) {
  BatchOptions opts;
  opts.threads = 2;
  const BatchResult result =
      run_batch_files(collect_spec_files(write_spec_dir()), opts);
  EXPECT_TRUE(result.all_ok());
  for (const auto& item : result.items) EXPECT_EQ(item.attempts, 1);
}

}  // namespace
}  // namespace sitm
