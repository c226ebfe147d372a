#pragma once
// The staged synthesis flow engine.
//
// The paper's flow is a fixed sequence of stages
//
//   load -> reachability -> properties -> csc -> synth -> decomp -> map
//        -> check -> verify -> emit
//
// that used to be re-wired by hand at every call site (the CLI, each
// example, the integration tests).  `Flow` runs that sequence off one
// `FlowOptions` struct, with
//   * a shared `FlowContext` owning the expensive artifacts the stages
//     exchange (the current StateGraph revision, the cached CSC conflict
//     analysis, the minimized covers and netlists),
//   * one structured `StageReport` per stage (wall time, state/literal
//     counts, warnings) serializable to JSON, and
//   * `stop_after` / per-stage `skip` controls.
//
// Stage semantics:
//   load          parse .g/.sg text into a Spec (shared loader)
//   reachability  token-game reachability (Stg -> StateGraph)
//   properties    consistency / determinism / commutativity / output
//                 persistency; CSC + USC status recorded (CSC violations are
//                 the csc stage's job, not a failure here)
//   csc           insert state signals until CSC holds (skipped work when
//                 the cached analysis already shows zero conflicts)
//   synth         per-signal monotonous-cover synthesis (parallel over
//                 non-input signals per McOptions::threads; bit-identical to
//                 serial) into the unconstrained standard-C netlist
//   decomp        non-SI tech_decomp2 area baseline of that netlist
//   map           technology mapping onto the gate library (replaces the SG
//                 and netlist with the decomposed versions)
//   check         static netlist analysis (netlist/nlint.hpp) plus the
//                 equivalence proof of every gate against its excitation
//                 function over the reachable states (netlist/equiv.hpp);
//                 off by default here, on by
//                 default in serve/batch as the fast static reject before
//                 the token-game verifier
//   verify        gate-level speed-independence check of the final netlist
//   emit          write .sg / Verilog / .eqn outputs
//
// A stage failure (violated property, unresolvable CSC, unimplementable
// spec, failed verification, or any thrown sitm::Error) stops the flow and
// is recorded in the report instead of propagating — the batch driver relies
// on this to keep going across a corpus.  One exception: after a *verify*
// failure the emit stage still runs, so requested output files are written
// for inspection of the failing netlist (the report stays failed).

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/csc.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "netlist/equiv.hpp"
#include "netlist/netlist.hpp"
#include "netlist/si_verify.hpp"
#include "netlist/tech_decomp.hpp"
#include "sg/state_graph.hpp"
#include "stg/load.hpp"
#include "util/json.hpp"
#include "util/run_guard.hpp"

namespace sitm {

enum class Stage : int {
  kLoad = 0,
  kReachability,
  kProperties,
  kCsc,
  kSynth,
  kDecomp,
  kMap,
  kCheck,
  kVerify,
  kEmit,
};
inline constexpr int kNumStages = 10;
inline constexpr std::array<Stage, kNumStages> kAllStages = {
    Stage::kLoad,  Stage::kReachability, Stage::kProperties, Stage::kCsc,
    Stage::kSynth, Stage::kDecomp,       Stage::kMap,        Stage::kCheck,
    Stage::kVerify, Stage::kEmit,
};

const char* stage_name(Stage stage);
/// Inverse of stage_name; nullopt for unknown names.
std::optional<Stage> parse_stage(std::string_view name);

/// Structured failure taxonomy of a stage (and of the flow): what *kind* of
/// thing went wrong, machine-readable next to the human `failure` string.
///   parse      malformed input (.g/.sg reader errors)
///   spec       the specification violates a flow precondition, or a stage
///              produced a genuine negative verdict (hazard, unresolvable
///              CSC, not implementable)
///   budget     a state/node/work budget was exhausted
///   deadline   the wall-clock deadline passed
///   cancelled  cancellation was requested (batch watchdog, serve front-end)
///   internal   anything else — unexpected std::exception, allocation
///              failure, or a non-standard exception
enum class FailureKind : int {
  kNone = 0,
  kParse,
  kSpec,
  kBudget,
  kDeadline,
  kCancelled,
  kInternal,
};
const char* failure_kind_name(FailureKind kind);

/// Classify a caught exception into the taxonomy (GuardExhausted by its
/// stop kind, ParseError, sitm::Error, everything else internal).  Shared
/// by the stage runner and the batch driver.
FailureKind classify_exception(const std::exception& e);
/// Map a guard stop to its failure kind (kBudget/kDeadline/kCancelled).
FailureKind failure_kind_of(GuardStop stop);

struct FlowOptions {
  /// Input format for run_file / run_string (kAuto sniffs).
  SpecFormat format = SpecFormat::kAuto;
  /// Synth-stage options; mc.threads controls per-signal parallelism.
  McOptions mc;
  CscOptions csc;
  MapperOptions mapper;
  std::size_t verify_max_states = std::size_t{1} << 20;
  /// Run the static spec lint (stg/lint.hpp) at the reachability gate,
  /// before any state graph is built: lint errors fail the stage with a
  /// typed `spec` failure_kind (the serve/batch fast reject path), lint
  /// warnings travel on the stage report.  Purely structural, O(net size).
  bool lint = false;
  /// Run the `check` stage: netlist static analysis (nlint) followed by the
  /// equivalence proof of every gate against its excitation function.
  /// Off by default here (a raw `Flow` stays as lean as before); the serve
  /// and batch front-ends turn it on as their output-side gate.
  bool check = false;
  /// Options of the check stage (nlint limits).
  CheckOptions check_opts;

  // ---- resource governance -------------------------------------------
  /// Wall-clock deadline for the whole run; 0 = none.  Enforced
  /// cooperatively through the run's RunGuard (polled in every stage's hot
  /// loop), so an expired deadline surfaces as a `deadline` stage failure,
  /// never a hung process.
  double deadline_ms = 0;
  /// Reachability state budget; 0 = the Stg default (kDefaultMaxStates).
  /// Exceeding it fails the reachability stage with failure_kind `budget`.
  std::size_t max_states = 0;
  /// Work-unit budget across the whole run (states discovered, candidates
  /// scored, composite states explored, ...); 0 = none.
  std::uint64_t work_budget = 0;
  /// What a budget/deadline trip means for stages that can degrade:
  ///   kFail     the stage fails (failure_kind budget/deadline/cancelled)
  ///   kDegrade  csc commits its best-so-far insertions with a warning;
  ///             verify reports "unverified" with a warning and stays ok.
  /// Stages with nothing partial to offer (reachability, synth, map) fail
  /// under both policies.
  enum class OnBudget { kFail, kDegrade };
  OnBudget on_budget = OnBudget::kFail;
  /// Externally owned guard (e.g. the batch driver's per-item guard, or a
  /// front-end holding the cancellation handle).  When null the flow makes
  /// its own from deadline_ms / work_budget; when set, those fields are
  /// applied onto it.
  std::shared_ptr<RunGuard> guard;

  /// Stop after this stage completes (inclusive); later stages are left
  /// un-run and the report stays ok.
  std::optional<Stage> stop_after;
  /// Per-stage skips.  load/reachability are the input spine and cannot be
  /// skipped; a stage whose inputs were skipped away is auto-skipped with a
  /// warning.
  std::array<bool, kNumStages> skip{};
  void set_skip(Stage stage, bool value = true) {
    skip[static_cast<int>(stage)] = value;
  }
  bool skipped(Stage stage) const { return skip[static_cast<int>(stage)]; }

  /// Emit-stage outputs; empty paths are not written.
  std::string emit_sg_path;
  std::string emit_verilog_path;
  std::string emit_eqn_path;
  /// Keep the emitted strings in the context (for callers that want the
  /// text without touching the filesystem).
  bool capture_emitted = false;

  /// Stable fingerprint of every *output-affecting* option — the options
  /// half of the serve cache key, next to the canonical spec hash.  A
  /// setting is output-affecting when it can change what a run produces
  /// (results, reported metrics, which outputs exist); deadlines, the guard
  /// and the input format are observational.  The roles are declared once,
  /// in the option table (flow/options.hpp).
  std::uint64_t fingerprint() const;
};

/// Structured result of one stage.
struct StageReport {
  Stage stage = Stage::kLoad;
  bool ran = false;      ///< body executed (false when skipped/not reached)
  bool skipped = false;  ///< skipped by options or missing inputs
  bool ok = true;        ///< false only when this stage failed the flow
  std::string failure;   ///< nonempty when !ok
  /// Taxonomy of the failure; kNone while ok.
  FailureKind failure_kind = FailureKind::kNone;
  double wall_ms = 0;
  /// Named numeric results in emission order (state counts, literal
  /// counts, ...).
  std::vector<std::pair<std::string, double>> metrics;
  /// Named string results (format, inserted signal descriptions, ...).
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> warnings;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void note(std::string name, std::string value) {
    info.emplace_back(std::move(name), std::move(value));
  }
  /// Metric lookup; nullopt when absent.
  std::optional<double> metric_value(std::string_view name) const;

  Json to_json() const;
};

/// Result of one flow run: per-stage reports plus the overall verdict.
struct FlowReport {
  std::string name;
  bool ok = true;
  std::optional<Stage> failed_stage;
  std::string failure;  ///< failure of the failed stage
  /// Taxonomy of `failure` (the failed stage's kind); kNone while ok.
  FailureKind failure_kind = FailureKind::kNone;
  double total_ms = 0;
  std::array<StageReport, kNumStages> stages;

  StageReport& stage(Stage s) { return stages[static_cast<int>(s)]; }
  const StageReport& stage(Stage s) const {
    return stages[static_cast<int>(s)];
  }

  Json to_json() const;
};

/// Shared artifact store: everything stages hand to each other lives here
/// and stays alive (and inspectable) after the run.
struct FlowContext {
  /// Parsed input; owns the Stg for .g specs.  For explicit-SG input the
  /// reachability stage moves spec.sg into `sg` below (no second copy).
  Spec spec;
  std::string name = "spec";

  /// The run's resource guard (FlowOptions::guard, or flow-owned when the
  /// options only set deadline_ms / work_budget).  Null when the run is
  /// ungoverned; stages pass `guard.get()` down their hot loops.
  std::shared_ptr<RunGuard> guard;

  /// Current SG revision: reachability result, then the CSC-resolved SG,
  /// then the mapped SG.  Earlier revisions stay alive through `csc` /
  /// `mapped` below, so netlists referencing them remain valid.
  std::shared_ptr<const StateGraph> sg;

  /// Cached CSC conflict analysis of the *pre-resolution* SG, computed once
  /// in the properties stage and reused by the csc stage.
  std::optional<CscAnalysis> csc_analysis;
  std::optional<CscResult> csc;

  /// Unconstrained synthesis of the (post-CSC) SG: per-signal minimized
  /// covers and the standard-C netlist.  `synth_sg` is the revision the
  /// netlist references.
  std::shared_ptr<const StateGraph> synth_sg;
  std::vector<SignalSynthesis> syntheses;
  std::optional<Netlist> synth_netlist;

  std::optional<TechDecompResult> decomp;

  std::optional<MapResult> mapped;
  /// Final netlist: the mapped netlist when the map stage ran, otherwise the
  /// unconstrained one.
  std::optional<Netlist> netlist;

  /// Check-stage artifacts: the structural diagnostics and (when nlint
  /// passes) the per-gate equivalence verdicts.
  std::optional<NlintReport> nlint;
  std::optional<EquivReport> equiv;

  std::optional<SiVerifyResult> verify;

  /// Captured emit-stage outputs (FlowOptions::capture_emitted).
  std::string emitted_sg, emitted_verilog, emitted_eqn;
};

class Flow {
 public:
  explicit Flow(FlowOptions opts = {}) : opts_(std::move(opts)) {}

  const FlowOptions& options() const { return opts_; }
  FlowContext& context() { return ctx_; }
  const FlowContext& context() const { return ctx_; }

  /// Run the full staged sequence from a file / in-memory text.
  FlowReport run_file(const std::string& path);
  FlowReport run_string(const std::string& text);
  /// Run from a pre-parsed spec (e.g. a suite entry); the load stage is
  /// recorded from the spec without re-parsing.
  FlowReport run_spec(Spec spec);
  /// Run the check stage alone on `netlist`, which replaces the netlist a
  /// previous run left in the context and is checked against the same SG
  /// revision.  `sitm check --mutate` proves a corrupted copy of a run's
  /// netlist this way, through the stage's own typed rejection.
  FlowReport check_netlist(Netlist netlist);

 private:
  /// Run the stages from `first` on, through `last` when given.
  FlowReport run_stages(Stage first, std::optional<Stage> last);
  /// Stage bodies; throw sitm::Error (or return false with sr.failure set)
  /// to fail the flow.
  void stage_load(StageReport& sr);
  void stage_reachability(StageReport& sr);
  void stage_properties(StageReport& sr);
  void stage_csc(StageReport& sr);
  void stage_synth(StageReport& sr);
  void stage_decomp(StageReport& sr);
  void stage_map(StageReport& sr);
  void stage_check(StageReport& sr);
  void stage_verify(StageReport& sr);
  void stage_emit(StageReport& sr);

  FlowOptions opts_;
  FlowContext ctx_;
  /// run_file/run_string stash the input here for the load stage.
  std::string input_text_, input_path_;
};

}  // namespace sitm
