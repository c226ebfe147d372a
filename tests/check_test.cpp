// The output-side static analysis gate: nlint's structural rules, the
// explicit equivalence checker (netlist/equiv.hpp) with its mutation
// harness, and the flow's `check` stage plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "netlist/equiv.hpp"
#include "netlist/nlint.hpp"
#include "netlist/tech_decomp.hpp"
#include "sg/state_graph.hpp"

namespace sitm {
namespace {

bool has(const NlintReport& report, NlintRule rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [rule](const NlintDiagnostic& d) { return d.rule == rule; });
}

std::string corpus_dir() {
  return (std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks")
      .string();
}

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus_dir()))
    if (entry.path().extension() == ".g") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// Minimal handshake SG: input a, output b, b follows a.
/// s0(00) -a+-> s1(01) -b+-> s2(11) -a--> s3(10) -b--> s0.
/// (bit 0 = a, bit 1 = b; next_value(b) is 1 exactly in {s1, s2}.)
StateGraph follow_sg() {
  StateGraphBuilder sg;
  const int a = sg.add_signal("a", SignalKind::kInput);
  const int b = sg.add_signal("b", SignalKind::kOutput);
  const StateId s0 = sg.add_state(0b00), s1 = sg.add_state(0b01),
                s2 = sg.add_state(0b11), s3 = sg.add_state(0b10);
  sg.add_arc(s0, Event{a, true}, s1);
  sg.add_arc(s1, Event{b, true}, s2);
  sg.add_arc(s2, Event{a, false}, s3);
  sg.add_arc(s3, Event{b, false}, s0);
  sg.set_initial(s0);
  return std::move(sg).freeze();
}

/// The correct combinational implementation for follow_sg: b = a.
SignalImpl follow_impl() {
  SignalImpl impl;
  impl.signal = 1;
  impl.combinational = true;
  impl.set = Cover(2, {Cube::literal(0, true)});
  impl.complexity = 1;
  return impl;
}

// ----- nlint rules --------------------------------------------------------

TEST(Nlint, CleanNetlistHasNoDiagnostics) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  nl.add_impl(follow_impl());
  const NlintReport report = nlint_netlist(nl);
  EXPECT_TRUE(report.clean()) << report.to_json().dump(2);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.rules_run, 5);  // no decomp result: wire rules skipped
}

TEST(Nlint, MissingAndDuplicateImplementations) {
  const StateGraph sg = follow_sg();
  Netlist none(&sg);
  const NlintReport missing = nlint_netlist(none);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(has(missing, NlintRule::kMissingImpl));

  Netlist twice(&sg);
  twice.add_impl(follow_impl());
  twice.add_impl(follow_impl());
  const NlintReport dup = nlint_netlist(twice);
  EXPECT_FALSE(dup.ok());
  EXPECT_TRUE(has(dup, NlintRule::kMissingImpl));
  EXPECT_NE(dup.first_error().find("driven by 2"), std::string::npos)
      << dup.first_error();
}

TEST(Nlint, BadReferences) {
  const StateGraph sg = follow_sg();
  // Driving an input signal.
  Netlist drives_input(&sg);
  SignalImpl onto_a = follow_impl();
  onto_a.signal = 0;
  drives_input.add_impl(onto_a);
  EXPECT_TRUE(has(nlint_netlist(drives_input), NlintRule::kBadReference));

  // Driving a signal index the graph does not have.
  Netlist out_of_range(&sg);
  SignalImpl beyond = follow_impl();
  beyond.signal = 7;
  out_of_range.add_impl(beyond);
  EXPECT_TRUE(has(nlint_netlist(out_of_range), NlintRule::kBadReference));

  // Reading a signal index the graph does not have.
  Netlist reads_ghost(&sg);
  SignalImpl ghost = follow_impl();
  ghost.set = Cover(8, {Cube::literal(5, true)});
  reads_ghost.add_impl(ghost);
  const NlintReport report = nlint_netlist(reads_ghost);
  EXPECT_TRUE(has(report, NlintRule::kBadReference));
  EXPECT_NE(report.first_error().find("undeclared signal"),
            std::string::npos);
}

TEST(Nlint, EmptyNetworkAndDriveFight) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  SignalImpl seq;
  seq.signal = 1;
  seq.combinational = false;
  seq.set = Cover(2, {Cube::literal(0, true)});
  seq.reset = Cover(2);  // empty: the C element could never fall
  nl.add_impl(seq);
  const NlintReport empty = nlint_netlist(nl);
  EXPECT_FALSE(empty.ok());
  EXPECT_TRUE(has(empty, NlintRule::kEmptyNetwork));

  Netlist fight(&sg);
  SignalImpl both = seq;
  both.reset = Cover(2, {Cube::literal(0, true)});  // set ∧ reset != 0
  fight.add_impl(both);
  const NlintReport fought = nlint_netlist(fight);
  EXPECT_TRUE(has(fought, NlintRule::kDriveFight));
  // A drive fight on don't-care codes is legal hardware until the
  // equivalence checker proves otherwise, so the rule warns instead of
  // failing.
  EXPECT_TRUE(fought.ok());
}

TEST(Nlint, FaninLimitIsConfigurable) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  SignalImpl impl = follow_impl();
  impl.set = Cover(2, {Cube::literal(0, true).with_literal(1, false)});
  nl.add_impl(impl);
  NlintOptions tight;
  tight.max_gc_fanin = 1;
  EXPECT_TRUE(has(nlint_netlist(nl, nullptr, tight), NlintRule::kFaninLimit));
  NlintOptions off;
  off.max_gc_fanin = 0;  // 0 disables the rule
  EXPECT_FALSE(has(nlint_netlist(nl, nullptr, off), NlintRule::kFaninLimit));
  EXPECT_FALSE(has(nlint_netlist(nl), NlintRule::kFaninLimit));  // default 16
}

TEST(Nlint, DecompWireRules) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  nl.add_impl(follow_impl());

  TechDecompResult decomp;
  decomp.gates.push_back(
      SimpleGate{SimpleGate::Op::kBuf, "b", "a", ""});  // feeds the output
  decomp.gates.push_back(
      SimpleGate{SimpleGate::Op::kAnd, "b_and0", "a", "!b"});  // consumed by
  decomp.gates.push_back(
      SimpleGate{SimpleGate::Op::kOr, "b_or0", "b_and0", "a"});  // ...nothing
  const NlintReport unused = nlint_netlist(nl, &decomp);
  EXPECT_EQ(unused.rules_run, kNumNlintRules);
  EXPECT_TRUE(has(unused, NlintRule::kUnusedWire));
  EXPECT_FALSE(has(unused, NlintRule::kDuplicateGate));

  TechDecompResult dup;
  dup.gates.push_back(SimpleGate{SimpleGate::Op::kAnd, "b", "a", "!b"});
  // Same function, operands swapped: AND is commutative.
  dup.gates.push_back(SimpleGate{SimpleGate::Op::kAnd, "b_and1", "!b", "a"});
  dup.gates.push_back(SimpleGate{SimpleGate::Op::kBuf, "b2", "b_and1", ""});
  const NlintReport duplicated = nlint_netlist(nl, &dup);
  EXPECT_TRUE(has(duplicated, NlintRule::kDuplicateGate));
}

TEST(Nlint, JsonCarriesTypedDiagnostics) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  const NlintReport report = nlint_netlist(nl);
  const std::string json = report.to_json().dump(0);
  EXPECT_NE(json.find("\"missing-impl\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"rules_run\""), std::string::npos);
}

// ----- equivalence checker ------------------------------------------------

TEST(Equiv, ProvesTheCorrectImplementation) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  nl.add_impl(follow_impl());
  const EquivReport report = check_equivalence(nl);
  EXPECT_TRUE(report.ok) << report.first_failure();
  EXPECT_EQ(report.gates_checked, 1);
  EXPECT_EQ(report.gates_proven, 1);
  EXPECT_EQ(report.reach_states, 4u);
  EXPECT_EQ(report.bdd_nodes, 0u);  // the proof is explicit
}

TEST(Equiv, RejectsWrongPolarityWithConcreteCounterexample) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  SignalImpl impl = follow_impl();
  impl.set = Cover(2, {Cube::literal(0, false)});  // b = !a: wrong
  nl.add_impl(impl);
  const EquivReport report = check_equivalence(nl);
  ASSERT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  const GateVerdict& v = report.failures.front();
  EXPECT_EQ(v.name, "b");
  EXPECT_EQ(v.network, "complete");
  ASSERT_NE(v.counterexample_state, kNoState);
  // The counterexample is a real reachable state whose code matches, and
  // it genuinely demonstrates the mismatch.
  EXPECT_EQ(sg.code(v.counterexample_state), v.counterexample_code);
  EXPECT_TRUE(sg.reachable().test(
      static_cast<std::size_t>(v.counterexample_state)));
  EXPECT_FALSE(impl.set.eval(v.counterexample_code));
}

TEST(Equiv, RejectsIncompleteCombinationalCover) {
  // Constant 0 passes nlint and misses both on-states (s1, s2); the proof
  // names the lowest.
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  SignalImpl impl = follow_impl();
  impl.set = Cover(2);
  nl.add_impl(impl);
  EXPECT_TRUE(nlint_netlist(nl).ok());
  const EquivReport report = check_equivalence(nl);
  ASSERT_FALSE(report.ok);
  ASSERT_EQ(report.failures.size(), 1u);
  const GateVerdict& v = report.failures.front();
  EXPECT_EQ(v.network, "complete");
  EXPECT_EQ(v.counterexample_state, 1);
  EXPECT_EQ(v.counterexample_code, 0b01u);
  EXPECT_NE(report.first_failure().find("is 0 in state " + sg.code_string(1)),
            std::string::npos)
      << report.first_failure();
}

TEST(Equiv, GuardBudgetSurfacesAsGuardExhausted) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  nl.add_impl(follow_impl());
  RunGuard guard;
  guard.set_work_budget(2);  // reach encoding alone needs 4 state charges
  EXPECT_THROW(check_equivalence(nl, {}, &guard), GuardExhausted);
}

TEST(Equiv, JsonCarriesVerdictsAndSizes) {
  const StateGraph sg = follow_sg();
  Netlist nl(&sg);
  nl.add_impl(follow_impl());
  const std::string json = check_equivalence(nl).to_json().dump(0);
  EXPECT_NE(json.find("\"gates_proven\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reach_states\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"failures\": []"), std::string::npos);
  // No BDD sizes: the proof builds none.
  for (const char* gone : {"reach_bdd_size", "bdd_nodes", "reordered",
                           "reorder_size_before", "reorder_size_after"})
    EXPECT_EQ(json.find(gone), std::string::npos) << gone;
}

// ----- corpus + mutation matrix -------------------------------------------

/// Synthesize one spec to its mapped netlist (check off: the pristine
/// baseline the mutation matrix corrupts).
Netlist mapped_netlist(const std::string& path, Flow& flow) {
  FlowOptions opts;
  opts.stop_after = Stage::kMap;
  flow = Flow(opts);
  const FlowReport report = flow.run_file(path);
  EXPECT_TRUE(report.ok) << path << ": " << report.failure;
  EXPECT_TRUE(flow.context().netlist.has_value()) << path;
  return *flow.context().netlist;
}

TEST(Equiv, AllCorpusNetlistsProveCleanEndToEnd) {
  const auto files = corpus_files();
  ASSERT_EQ(files.size(), 32u);
  for (const auto& path : files) {
    FlowOptions opts;
    opts.check = true;
    Flow flow(opts);
    const FlowReport report = flow.run_file(path);
    EXPECT_TRUE(report.ok) << path << ": " << report.failure;
    const StageReport& check = report.stage(Stage::kCheck);
    EXPECT_TRUE(check.ran) << path;
    ASSERT_TRUE(flow.context().equiv.has_value()) << path;
    const EquivReport& equiv = *flow.context().equiv;
    EXPECT_GT(equiv.gates_checked, 0) << path;
    EXPECT_EQ(equiv.gates_proven, equiv.gates_checked) << path;
    ASSERT_TRUE(flow.context().nlint.has_value()) << path;
    EXPECT_EQ(flow.context().nlint->errors, 0) << path;
  }
}

TEST(Equiv, EverySeededMutantIsRejectedWithACounterexample) {
  // Every mutation site of every kind on a few corpus netlists: minimized
  // covers are irredundant, so each flip/drop uncovers some essential
  // state, and a set/reset swap contradicts both excitation regions.
  const std::string specs[] = {"alloc-outbound.g", "chu133.g",
                               "converta.g"};
  for (const auto& name : specs) {
    const std::string path =
        (std::filesystem::path(corpus_dir()) / name).string();
    Flow flow;
    const Netlist pristine = mapped_netlist(path, flow);
    ASSERT_TRUE(check_equivalence(pristine).ok) << name;
    int sites_total = 0;
    for (const NetlistMutation kind :
         {NetlistMutation::kFlipLiteral, NetlistMutation::kDropCube,
          NetlistMutation::kSwapSetReset}) {
      for (int which = 0;; ++which) {
        Netlist mutant = pristine;
        if (!mutate_netlist(mutant, kind, which)) break;
        ++sites_total;
        const EquivReport report = check_equivalence(mutant);
        ASSERT_FALSE(report.ok)
            << name << ": " << netlist_mutation_name(kind) << " #" << which
            << " survived";
        ASSERT_FALSE(report.failures.empty());
        // At least one failed verdict carries a concrete reachable state.
        bool concrete = false;
        for (const GateVerdict& v : report.failures) {
          if (v.counterexample_state == kNoState) continue;
          concrete = true;
          EXPECT_EQ(mutant.sg().code(v.counterexample_state),
                    v.counterexample_code)
              << name;
          EXPECT_TRUE(mutant.sg().reachable().test(
              static_cast<std::size_t>(v.counterexample_state)))
              << name;
        }
        EXPECT_TRUE(concrete)
            << name << ": " << netlist_mutation_name(kind) << " #" << which;
      }
    }
    EXPECT_GT(sites_total, 0) << name;
  }
}

TEST(Equiv, MutationKindsEnumerateDisjointSites) {
  const std::string path =
      (std::filesystem::path(corpus_dir()) / "alloc-outbound.g").string();
  Flow flow;
  const Netlist pristine = mapped_netlist(path, flow);
  // alloc-outbound has 2 C elements: swap has exactly that many sites.
  int swaps = 0;
  for (int which = 0;; ++which) {
    Netlist mutant = pristine;
    if (!mutate_netlist(mutant, NetlistMutation::kSwapSetReset, which)) break;
    ++swaps;
  }
  EXPECT_EQ(swaps, pristine.num_c_elements());
  // A mutation out of range reports false and leaves the netlist alone.
  Netlist untouched = pristine;
  EXPECT_FALSE(
      mutate_netlist(untouched, NetlistMutation::kSwapSetReset, swaps));
  EXPECT_TRUE(untouched.impls() == pristine.impls());
}

// ----- flow stage plumbing ------------------------------------------------

TEST(CheckStage, OffByDefaultOnInReportAndBitIdenticalAcrossThreads) {
  const std::string path =
      (std::filesystem::path(corpus_dir()) / "alloc-outbound.g").string();
  {
    Flow flow;  // default: the stage is skipped, not run
    const FlowReport report = flow.run_file(path);
    ASSERT_TRUE(report.ok) << report.failure;
    EXPECT_TRUE(report.stage(Stage::kCheck).skipped);
    EXPECT_FALSE(flow.context().equiv.has_value());
  }
  // The check stage's report is bit-identical at any thread count (the
  // synthesized netlists are, so the proofs over them must be too).
  std::vector<std::pair<std::string, double>> baseline;
  for (const int threads : {1, 2, 4}) {
    FlowOptions opts;
    opts.check = true;
    opts.mc.threads = threads;
    opts.mapper.threads = threads;
    Flow flow(opts);
    const FlowReport report = flow.run_file(path);
    ASSERT_TRUE(report.ok) << report.failure;
    const StageReport& check = report.stage(Stage::kCheck);
    ASSERT_TRUE(check.ran);
    if (baseline.empty()) {
      baseline = check.metrics;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(check.metrics, baseline) << "threads=" << threads;
    }
  }
}

TEST(CheckStage, StageNameRoundTripsAndOrdering) {
  EXPECT_STREQ(stage_name(Stage::kCheck), "check");
  ASSERT_TRUE(parse_stage("check").has_value());
  EXPECT_EQ(*parse_stage("check"), Stage::kCheck);
  EXPECT_LT(static_cast<int>(Stage::kMap), static_cast<int>(Stage::kCheck));
  EXPECT_LT(static_cast<int>(Stage::kCheck),
            static_cast<int>(Stage::kVerify));
}

TEST(CheckStage, StopAfterMapLeavesCheckUnrun) {
  const std::string path =
      (std::filesystem::path(corpus_dir()) / "alloc-outbound.g").string();
  FlowOptions opts;
  opts.check = true;
  opts.stop_after = Stage::kMap;
  Flow flow(opts);
  const FlowReport report = flow.run_file(path);
  ASSERT_TRUE(report.ok);
  EXPECT_FALSE(report.stage(Stage::kCheck).ran);
}

TEST(CheckStage, SkippedNetlistMeansAutoSkipWithWarning) {
  const std::string path =
      (std::filesystem::path(corpus_dir()) / "alloc-outbound.g").string();
  FlowOptions opts;
  opts.check = true;
  opts.set_skip(Stage::kSynth);
  opts.set_skip(Stage::kDecomp);
  opts.set_skip(Stage::kMap);
  opts.set_skip(Stage::kVerify);
  opts.set_skip(Stage::kEmit);
  Flow flow(opts);
  const FlowReport report = flow.run_file(path);
  ASSERT_TRUE(report.ok) << report.failure;
  const StageReport& check = report.stage(Stage::kCheck);
  EXPECT_TRUE(check.skipped);
  EXPECT_FALSE(check.warnings.empty());
}

TEST(CheckStage, RejectsACorruptNetlistTyped) {
  // A clean corpus run passes the stage with its metrics, and the same
  // run's netlist with one literal flipped fails it typed.
  const std::string path =
      (std::filesystem::path(corpus_dir()) / "chu133.g").string();
  FlowOptions opts;
  opts.check = true;
  Flow flow(opts);
  const FlowReport report = flow.run_file(path);
  ASSERT_TRUE(report.ok) << report.failure;
  const StageReport& check = report.stage(Stage::kCheck);
  EXPECT_GT(*check.metric_value("gates_proven"), 0.0);
  EXPECT_EQ(*check.metric_value("nlint_errors"), 0.0);
  EXPECT_GT(*check.metric_value("reach_states"), 0.0);
  for (const char* gone : {"reach_bdd_size", "bdd_nodes",
                           "reorder_size_before", "reorder_size_after"})
    EXPECT_FALSE(check.metric_value(gone).has_value()) << gone;

  Netlist mutant = *flow.context().netlist;
  ASSERT_TRUE(mutate_netlist(mutant, NetlistMutation::kFlipLiteral, 0));
  const FlowReport rejected = flow.check_netlist(std::move(mutant));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.failed_stage, Stage::kCheck);
  EXPECT_EQ(rejected.failure_kind, FailureKind::kSpec);
}

/// The flow's check stage over a flip-literal mutant of a corpus spec's
/// mapped netlist at i=2 (what `sitm check --mutate flip-literal:N` runs).
FlowReport check_flip_literal_mutant(const std::string& name, int which,
                                     Flow& flow) {
  FlowOptions opts;
  opts.check = true;
  opts.stop_after = Stage::kMap;
  opts.mapper.library.max_literals = 2;
  flow = Flow(opts);
  const FlowReport clean = flow.run_file(
      (std::filesystem::path(corpus_dir()) / (name + ".g")).string());
  EXPECT_TRUE(clean.ok) << clean.failure;
  EXPECT_FALSE(clean.stage(Stage::kCheck).ran);
  Netlist mutant = *flow.context().netlist;
  EXPECT_TRUE(mutate_netlist(mutant, NetlistMutation::kFlipLiteral, which));
  return flow.check_netlist(std::move(mutant));
}

TEST(CheckStage, MutantFailsTheStageWithItsCounterexample) {
  // Both flipped literals pass nlint; the equivalence proof rejects them,
  // and the failure carries the proof's counterexample.  chu133's gates are
  // combinational, so its flip leaves an on-state of a complete cover at 0.
  const struct {
    const char* name;
    const char* state;
  } cases[] = {{"chu133", "in state 1000 "}, {"hazard", "in state 10000 "}};
  for (const auto& c : cases) {
    Flow flow;
    const FlowReport proof = check_flip_literal_mutant(c.name, 0, flow);
    EXPECT_FALSE(proof.ok) << c.name;
    EXPECT_EQ(proof.failed_stage, Stage::kCheck) << c.name;
    EXPECT_EQ(proof.failure_kind, FailureKind::kSpec) << c.name;
    ASSERT_TRUE(flow.context().equiv.has_value()) << c.name;
    EXPECT_FALSE(flow.context().equiv->ok) << c.name;
    EXPECT_EQ(flow.context().nlint->errors, 0) << c.name;
    EXPECT_EQ(proof.failure, flow.context().equiv->first_failure()) << c.name;
    EXPECT_NE(proof.failure.find(c.state), std::string::npos) << proof.failure;
  }
}

}  // namespace
}  // namespace sitm
