// Resource governance: RunGuard semantics (budgets, deadlines,
// cancellation), the typed reachability budget, the flow-level
// deadline/budget/cancel failure taxonomy, and the verify stage's
// "unverified" degradation under the kDegrade policy.

#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "netlist/si_verify.hpp"
#include "stg/g_io.hpp"
#include "util/run_guard.hpp"

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

TEST(RunGuard, BudgetTripsWithCountAndLimit) {
  RunGuard guard;
  guard.set_work_budget(10);
  for (int i = 0; i < 10; ++i) guard.charge(1, "test.site");
  EXPECT_EQ(guard.work(), 10u);
  EXPECT_EQ(guard.status(), GuardStop::kNone);
  try {
    guard.charge(1, "test.site");
    FAIL() << "expected GuardExhausted";
  } catch (const GuardExhausted& e) {
    EXPECT_EQ(e.kind(), GuardStop::kBudget);
    EXPECT_EQ(e.site(), "test.site");
    EXPECT_EQ(e.count(), 11u);
    EXPECT_EQ(e.limit(), 10u);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
  EXPECT_EQ(guard.status(), GuardStop::kBudget);
}

TEST(RunGuard, CancelTripsOnNextCharge) {
  RunGuard guard;
  guard.charge(100, "test.site");  // unbudgeted work is free
  EXPECT_EQ(guard.status(), GuardStop::kNone);
  guard.request_cancel();
  EXPECT_EQ(guard.status(), GuardStop::kCancelled);
  EXPECT_THROW(guard.charge(1, "test.site"), GuardExhausted);
  EXPECT_THROW(guard.check("test.site"), GuardExhausted);
  EXPECT_EQ(guard.status(), GuardStop::kCancelled);
}

TEST(RunGuard, ExpiredDeadlineTripsOnCheck) {
  RunGuard guard;
  guard.set_deadline_ms(1e-6);  // effectively already expired
  // check() reads the clock unconditionally (unlike charge()'s amortized
  // poll), so the trip is immediate once the clock has advanced.
  while (true) {
    try {
      guard.check("test.site");
    } catch (const GuardExhausted& e) {
      EXPECT_EQ(e.kind(), GuardStop::kDeadline);
      break;
    }
  }
  EXPECT_EQ(guard.status(), GuardStop::kDeadline);
}

TEST(RunGuard, NullGuardHelpersAreNoOps) {
  guard_charge(nullptr, 1000, "test.site");
  guard_check(nullptr, "test.site");  // must not throw
}

TEST(RunGuard, StopNamesAreStable) {
  EXPECT_STREQ(guard_stop_name(GuardStop::kNone), "none");
  EXPECT_STREQ(guard_stop_name(GuardStop::kBudget), "budget");
  EXPECT_STREQ(guard_stop_name(GuardStop::kDeadline), "deadline");
  EXPECT_STREQ(guard_stop_name(GuardStop::kCancelled), "cancelled");
}

TEST(RunGuard, ReachabilityBudgetIsATypedError) {
  const Stg stg = read_g_string(kCscConflictSpec);
  // The ring has 8 reachable states; a budget of 4 must fail with the
  // structured count/limit payload, not a generic Error.
  try {
    stg.to_state_graph(4);
    FAIL() << "expected GuardExhausted";
  } catch (const GuardExhausted& e) {
    EXPECT_EQ(e.kind(), GuardStop::kBudget);
    EXPECT_EQ(e.site(), "stg.to_state_graph");
    EXPECT_EQ(e.limit(), 4u);
    EXPECT_GE(e.count(), 4u);
  }
  // The default budget is unaffected.
  EXPECT_EQ(stg.to_state_graph().num_states(), 8u);
}

TEST(FlowGuard, MaxStatesFailsReachabilityAsBudget) {
  FlowOptions opts;
  opts.max_states = 4;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kReachability);
  EXPECT_EQ(report.failure_kind, FailureKind::kBudget);
  EXPECT_EQ(report.stage(Stage::kReachability).failure_kind,
            FailureKind::kBudget);
  for (const Stage s : {Stage::kProperties, Stage::kCsc, Stage::kSynth,
                        Stage::kMap, Stage::kVerify, Stage::kEmit})
    EXPECT_FALSE(report.stage(s).ran) << stage_name(s);
}

TEST(FlowGuard, WorkBudgetFailsWithBudgetKind) {
  FlowOptions opts;
  opts.work_budget = 4;  // reachability alone discovers 8 states
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kReachability);
  EXPECT_EQ(report.failure_kind, FailureKind::kBudget);
}

TEST(FlowGuard, ExpiredDeadlineFailsWithDeadlineKind) {
  FlowOptions opts;
  opts.deadline_ms = 1e-6;  // expires as soon as the clock ticks
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure_kind, FailureKind::kDeadline);
}

TEST(FlowGuard, ExternalCancelFailsWithCancelledKind) {
  FlowOptions opts;
  opts.guard = std::make_shared<RunGuard>();
  opts.guard->request_cancel();  // e.g. a front-end's stop button
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kLoad);
  EXPECT_EQ(report.failure_kind, FailureKind::kCancelled);
}

TEST(FlowGuard, FailureKindSerializedInJson) {
  FlowOptions opts;
  opts.max_states = 4;
  Flow flow(opts);
  const std::string json = flow.run_string(kCscConflictSpec).to_json().dump(2);
  EXPECT_NE(json.find("failure_kind"), std::string::npos) << json;
  EXPECT_NE(json.find("\"budget\""), std::string::npos) << json;
  // An ok run serializes no failure_kind at all.
  Flow ok_flow;
  const std::string ok_json =
      ok_flow.run_string(kCscConflictSpec).to_json().dump(2);
  EXPECT_EQ(ok_json.find("failure_kind"), std::string::npos);
}

TEST(FlowGuard, VerifyBudgetFailsTypedUnderDefaultPolicy) {
  FlowOptions opts;
  opts.verify_max_states = 1;  // exploration cannot finish
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failed_stage, Stage::kVerify);
  EXPECT_EQ(report.failure_kind, FailureKind::kBudget);
  // Emit still runs after a verify failure (typed or not).
  EXPECT_TRUE(report.stage(Stage::kEmit).ran);
}

TEST(FlowGuard, VerifyBudgetDegradesToUnverified) {
  FlowOptions opts;
  opts.verify_max_states = 1;
  opts.on_budget = FlowOptions::OnBudget::kDegrade;
  Flow flow(opts);
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  const StageReport& sr = report.stage(Stage::kVerify);
  EXPECT_TRUE(sr.ok);
  EXPECT_EQ(sr.metric_value("unverified"), 1.0);
  EXPECT_EQ(sr.metric_value("speed_independent"), 0.0);
  ASSERT_FALSE(sr.warnings.empty());
  EXPECT_NE(sr.warnings.front().find("unverified"), std::string::npos);
  // The result is never mistaken for a proof.
  ASSERT_TRUE(flow.context().verify.has_value());
  EXPECT_FALSE(flow.context().verify->ok);
  EXPECT_TRUE(flow.context().verify->unverified);
  EXPECT_EQ(flow.context().verify->stopped, GuardStop::kBudget);
}

TEST(FlowGuard, UngovernedRunsStayClean) {
  // No deadline/budget options: no guard is created and reports carry no
  // failure kind.
  Flow flow;
  const FlowReport report = flow.run_string(kCscConflictSpec);
  ASSERT_TRUE(report.ok) << report.failure;
  EXPECT_EQ(report.failure_kind, FailureKind::kNone);
  EXPECT_EQ(flow.context().guard, nullptr);
}

}  // namespace
}  // namespace sitm
