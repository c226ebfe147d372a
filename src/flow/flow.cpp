#include "flow/flow.hpp"

#include <chrono>
#include <fstream>
#include <limits>

#include "flow/options.hpp"
#include "netlist/writers.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "stg/canon.hpp"
#include "stg/lint.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/scheduler.hpp"

namespace sitm {

namespace {

constexpr const char* kStageNames[kNumStages] = {
    "load", "reachability", "properties", "csc", "synth",
    "decomp", "map", "check", "verify", "emit",
};

/// Static fault-injection site per stage entry (fault::hit wants a stable
/// const char*).
constexpr const char* kStageFaultSites[kNumStages] = {
    "flow.load",  "flow.reachability", "flow.properties",
    "flow.csc",   "flow.synth",        "flow.decomp",
    "flow.map",   "flow.check",        "flow.verify",
    "flow.emit",
};

constexpr const char* kFailureKindNames[] = {
    "none", "parse", "spec", "budget", "deadline", "cancelled", "internal",
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<int>(stage)];
}

std::optional<Stage> parse_stage(std::string_view name) {
  for (int i = 0; i < kNumStages; ++i)
    if (name == kStageNames[i]) return static_cast<Stage>(i);
  return std::nullopt;
}

const char* failure_kind_name(FailureKind kind) {
  return kFailureKindNames[static_cast<int>(kind)];
}

std::uint64_t FlowOptions::fingerprint() const {
  StableHasher h;
  h.tag('F');
  for (const OptionRow& row : option_table())
    if (row.role == OptionRole::kOutput) row.hash(*this, h);
  return h.digest().hi ^ (h.digest().lo * 0x9e3779b97f4a7c15ull);
}

FailureKind failure_kind_of(GuardStop stop) {
  switch (stop) {
    case GuardStop::kBudget: return FailureKind::kBudget;
    case GuardStop::kDeadline: return FailureKind::kDeadline;
    case GuardStop::kCancelled: return FailureKind::kCancelled;
    case GuardStop::kNone: break;
  }
  return FailureKind::kNone;
}

FailureKind classify_exception(const std::exception& e) {
  if (const auto* g = dynamic_cast<const GuardExhausted*>(&e))
    return failure_kind_of(g->kind());
  if (dynamic_cast<const ParseError*>(&e)) return FailureKind::kParse;
  if (dynamic_cast<const Error*>(&e)) return FailureKind::kSpec;
  return FailureKind::kInternal;
}

std::optional<double> StageReport::metric_value(std::string_view name) const {
  for (const auto& [k, v] : metrics)
    if (k == name) return v;
  return std::nullopt;
}

Json StageReport::to_json() const {
  Json j = Json::object();
  j.set("stage", stage_name(stage));
  j.set("ran", ran);
  j.set("skipped", skipped);
  j.set("ok", ok);
  if (!failure.empty()) j.set("failure", failure);
  if (failure_kind != FailureKind::kNone)
    j.set("failure_kind", failure_kind_name(failure_kind));
  j.set("wall_ms", wall_ms);
  if (!metrics.empty()) {
    Json m = Json::object();
    for (const auto& [k, v] : metrics) m.set(k, v);
    j.set("metrics", std::move(m));
  }
  if (!info.empty()) {
    Json m = Json::object();
    for (const auto& [k, v] : info) m.set(k, v);
    j.set("info", std::move(m));
  }
  if (!warnings.empty()) {
    Json w = Json::array();
    for (const auto& s : warnings) w.push(s);
    j.set("warnings", std::move(w));
  }
  return j;
}

Json FlowReport::to_json() const {
  Json j = Json::object();
  j.set("name", name);
  j.set("ok", ok);
  if (failed_stage) j.set("failed_stage", stage_name(*failed_stage));
  if (!failure.empty()) j.set("failure", failure);
  if (failure_kind != FailureKind::kNone)
    j.set("failure_kind", failure_kind_name(failure_kind));
  j.set("total_ms", total_ms);
  Json s = Json::array();
  for (const auto& sr : stages) s.push(sr.to_json());
  j.set("stages", std::move(s));
  return j;
}

FlowReport Flow::run_file(const std::string& path) {
  input_path_ = path;
  input_text_.clear();
  return run_stages(Stage::kLoad, opts_.stop_after);
}

FlowReport Flow::run_string(const std::string& text) {
  input_path_.clear();
  input_text_ = text;
  return run_stages(Stage::kLoad, opts_.stop_after);
}

FlowReport Flow::run_spec(Spec spec) {
  ctx_ = FlowContext{};
  ctx_.spec = std::move(spec);
  ctx_.name = ctx_.spec.name;
  return run_stages(Stage::kReachability, opts_.stop_after);
}

namespace {

/// Load-stage metrics from an already-parsed spec (shared between the real
/// load stage and the pre-parsed entry points).
void describe_spec(const Spec& spec, StageReport& sr) {
  sr.note("format", spec_format_name(spec.format));
  if (!spec.path.empty()) sr.note("path", spec.path);
  if (spec.stg) {
    sr.metric("signals", static_cast<double>(spec.stg->num_signals()));
    sr.metric("transitions", static_cast<double>(spec.stg->num_transitions()));
    sr.metric("places", static_cast<double>(spec.stg->num_places()));
  } else if (spec.sg) {
    sr.metric("signals", static_cast<double>(spec.sg->num_signals()));
    sr.metric("states", static_cast<double>(spec.sg->num_states()));
    sr.metric("arcs", static_cast<double>(spec.sg->num_arcs()));
  }
}

}  // namespace

FlowReport Flow::check_netlist(Netlist netlist) {
  ctx_.netlist = std::move(netlist);
  ctx_.nlint.reset();
  ctx_.equiv.reset();
  return run_stages(Stage::kCheck, Stage::kCheck);
}

FlowReport Flow::run_stages(Stage first, std::optional<Stage> last) {
  if (first == Stage::kLoad) ctx_ = FlowContext{};
  FlowReport report;
  for (int i = 0; i < kNumStages; ++i)
    report.stages[i].stage = static_cast<Stage>(i);
  const auto flow_start = std::chrono::steady_clock::now();

  // Resource governance: adopt the caller's guard or make one when the
  // options ask for a deadline/budget.  Ungoverned runs keep guard null and
  // every hot loop's guard_charge stays a no-op.
  ctx_.guard = opts_.guard;
  if (!ctx_.guard && (opts_.deadline_ms > 0 || opts_.work_budget > 0))
    ctx_.guard = std::make_shared<RunGuard>();
  if (ctx_.guard) {
    if (opts_.deadline_ms > 0) ctx_.guard->set_deadline_ms(opts_.deadline_ms);
    if (opts_.work_budget > 0) ctx_.guard->set_work_budget(opts_.work_budget);
  }

  for (const Stage s : kAllStages) {
    StageReport& sr = report.stage(s);
    if (static_cast<int>(s) < static_cast<int>(first)) {
      // Satisfied by the input form (pre-parsed spec / explicit SG).
      sr.ran = true;
      if (s == Stage::kLoad) describe_spec(ctx_.spec, sr);
      continue;
    }
    const bool spine = s == Stage::kLoad || s == Stage::kReachability;
    // The check stage is opt-in: when disabled it is skipped *before* the
    // guard checkpoint and fault site fire, so an armed flow.check fault
    // cannot trip a run that never asked for the stage.
    if ((opts_.skipped(s) || (s == Stage::kCheck && !opts_.check)) && !spine) {
      sr.skipped = true;
    } else {
      if (opts_.skipped(s) && spine)
        sr.warnings.push_back(std::string(stage_name(s)) +
                              " cannot be skipped (input spine); running");
      const auto start = std::chrono::steady_clock::now();
      sr.ran = true;
      try {
        // Cheap per-stage checkpoint: an expired deadline or a cancel
        // request stops the flow at the next stage boundary even when the
        // stage bodies between here and there do no governed work.
        guard_check(ctx_.guard.get(), kStageFaultSites[static_cast<int>(s)]);
        fault::hit(kStageFaultSites[static_cast<int>(s)]);
        switch (s) {
          case Stage::kLoad: stage_load(sr); break;
          case Stage::kReachability: stage_reachability(sr); break;
          case Stage::kProperties: stage_properties(sr); break;
          case Stage::kCsc: stage_csc(sr); break;
          case Stage::kSynth: stage_synth(sr); break;
          case Stage::kDecomp: stage_decomp(sr); break;
          case Stage::kMap: stage_map(sr); break;
          case Stage::kCheck: stage_check(sr); break;
          case Stage::kVerify: stage_verify(sr); break;
          case Stage::kEmit: stage_emit(sr); break;
        }
      } catch (const std::exception& e) {
        sr.ok = false;
        if (sr.failure.empty()) sr.failure = e.what();
        if (sr.failure_kind == FailureKind::kNone)
          sr.failure_kind = classify_exception(e);
      } catch (...) {
        // A non-standard exception must not escape the stage runner: the
        // batch driver and the CLI rely on every failure becoming a report.
        sr.ok = false;
        if (sr.failure.empty())
          sr.failure = "non-standard exception escaped the stage body";
        sr.failure_kind = FailureKind::kInternal;
      }
      sr.wall_ms = ms_since(start);
    }
    if (!sr.ok) {
      if (report.ok) {
        report.ok = false;
        report.failed_stage = s;
        report.failure = sr.failure;
        report.failure_kind = sr.failure_kind;
      }
      // A failed verification still leaves a netlist worth inspecting: the
      // emit stage runs so requested output files are written anyway (the
      // report stays failed).  Every other failure stops the flow here.
      if (s != Stage::kVerify) break;
    }
    if (last == s) break;
  }

  report.total_ms = ms_since(flow_start);
  report.name = ctx_.name;
  return report;
}

void Flow::stage_load(StageReport& sr) {
  ctx_.spec = input_path_.empty()
                  ? load_spec_string(input_text_, opts_.format)
                  : load_spec_file(input_path_, opts_.format);
  ctx_.name = ctx_.spec.name;
  describe_spec(ctx_.spec, sr);
}

void Flow::stage_reachability(StageReport& sr) {
  if (opts_.lint) {
    // Static reject gate: catch specification bugs before paying for the
    // token game.  Errors fail the stage typed (`spec`); warnings ride the
    // report.  This also covers the pre-parsed entry points (run_spec /
    // serve), whose load stage never runs a body.
    const LintReport lint = lint_spec(ctx_.spec);
    if (!lint.clean()) {
      sr.metric("lint_errors", lint.errors);
      sr.metric("lint_warnings", lint.warnings);
    }
    for (const auto& d : lint.diagnostics)
      if (d.severity == LintSeverity::kWarning)
        sr.warnings.push_back(std::string("lint[") + lint_rule_name(d.rule) +
                              "]: " + d.message);
    if (!lint.ok()) {
      std::string failure = lint.first_error();
      if (lint.errors > 1)
        failure += " (+" + std::to_string(lint.errors - 1) + " more)";
      throw Error(failure);
    }
  }
  if (ctx_.spec.sg) {
    // Move rather than copy: the load metrics were already recorded, and a
    // second full SG would double peak memory for every batch worker.
    ctx_.sg = std::make_shared<const StateGraph>(std::move(*ctx_.spec.sg));
    ctx_.spec.sg.reset();
    sr.note("engine", "explicit state graph input");
  } else if (ctx_.spec.stg) {
    const std::size_t max_states =
        opts_.max_states > 0 ? opts_.max_states : Stg::kDefaultMaxStates;
    ctx_.sg = std::make_shared<const StateGraph>(
        ctx_.spec.stg->to_state_graph(max_states, ctx_.guard.get()));
    sr.note("engine", "token game");
  } else {
    throw Error("reachability: no specification loaded");
  }
  sr.metric("states", static_cast<double>(ctx_.sg->num_states()));
  sr.metric("arcs", static_cast<double>(ctx_.sg->num_arcs()));
  sr.metric("signals", static_cast<double>(ctx_.sg->num_signals()));
}

void Flow::stage_properties(StageReport& sr) {
  const StateGraph& sg = *ctx_.sg;
  const std::pair<const char*, PropertyResult> checks[] = {
      {"consistency", check_consistency(sg)},
      {"determinism", check_determinism(sg)},
      {"commutativity", check_commutativity(sg)},
      {"output_persistency", check_output_persistency(sg)},
  };
  for (const auto& [what, r] : checks)
    sr.metric(what, r.ok ? 1 : 0);
  ctx_.csc_analysis = analyze_csc(sg);
  const int conflicts = ctx_.csc_analysis->conflict_pairs;
  sr.metric("csc", conflicts == 0 ? 1 : 0);
  sr.metric("csc_conflict_pairs", conflicts);
  sr.metric("usc", check_usc(sg).ok ? 1 : 0);
  for (const auto& [what, r] : checks) {
    if (!r.ok)
      throw Error(std::string(what) + ": " + r.why);
  }
  if (conflicts > 0) {
    sr.warnings.push_back("CSC violated: " + std::to_string(conflicts) +
                          " conflict pair(s)");
    if (opts_.skipped(Stage::kCsc))
      sr.warnings.push_back(
          "csc stage is skipped; downstream synthesis will fail");
  }
}

void Flow::stage_csc(StageReport& sr) {
  if (!ctx_.csc_analysis)  // properties skipped: analyze here instead
    ctx_.csc_analysis = analyze_csc(*ctx_.sg);
  const int before = ctx_.csc_analysis->conflict_pairs;
  sr.metric("conflict_pairs_before", before);
  if (before == 0) {
    sr.metric("signals_inserted", 0);
    sr.note("result", "already satisfied");
    return;
  }
  CscResult resolved = resolve_csc(*ctx_.sg, opts_.csc, ctx_.guard.get());
  if (resolved.stopped != GuardStop::kNone) {
    // The search hit a budget/deadline/cancel.  Under kFail that is a hard,
    // typed stage failure; under kDegrade the engine's best-so-far commit
    // stands — ok when it resolved every conflict (warning notes the early
    // stop), failed when conflicts remain (downstream synthesis would
    // produce a wrong circuit, so there is nothing safe to continue with).
    const bool strict = opts_.on_budget == FlowOptions::OnBudget::kFail;
    if (strict || !resolved.resolved) {
      sr.ok = false;
      sr.failure = resolved.failure.empty()
                       ? std::string("CSC search stopped (") +
                             guard_stop_name(resolved.stopped) + ")"
                       : resolved.failure;
      sr.failure_kind = failure_kind_of(resolved.stopped);
      sr.metric("signals_inserted", resolved.signals_inserted);
      if (resolved.sg) {
        // Keep the partial resolution inspectable (the flow stops here).
        ctx_.sg = resolved.sg;
        ctx_.csc = std::move(resolved);
      }
      return;
    }
    sr.warnings.push_back(
        std::string("CSC search stopped early (") +
        guard_stop_name(resolved.stopped) +
        "); committed insertions resolve all conflicts");
  }
  if (!resolved.resolved)
    throw Error("CSC resolution failed: " + resolved.failure);
  if (resolved.degraded) sr.note("result", "degraded (best-so-far commit)");
  for (const auto& step : resolved.steps)
    sr.note(step.new_signal,
            "set after " + resolved.sg->event_string(step.set_after) +
                ", reset after " +
                resolved.sg->event_string(step.reset_after) + " (" +
                std::to_string(step.conflicts_before) + " -> " +
                std::to_string(step.conflicts_after) + " conflicts)");
  sr.metric("signals_inserted", resolved.signals_inserted);
  sr.metric("states_after", static_cast<double>(resolved.sg->num_states()));
  // Search-work counters of the candidate scan: graphs_materialized is one
  // per inserted signal (candidates are scored and verified on their
  // previews), and candidates_scored sizes the scan behind a slow csc stage.
  sr.metric("candidates_scored",
            static_cast<double>(resolved.candidates_scored));
  sr.metric("graphs_materialized",
            static_cast<double>(resolved.graphs_materialized));
  ctx_.sg = resolved.sg;
  // The resolved SG satisfies CSC by construction; refresh the cache so
  // later consumers see the current revision's analysis.
  ctx_.csc_analysis = CscAnalysis{0, ctx_.sg->empty_set()};
  ctx_.csc = std::move(resolved);
}

void Flow::stage_synth(StageReport& sr) {
  ctx_.synth_sg = ctx_.sg;
  sr.metric("threads",
            resolve_worker_threads(opts_.mc.threads,
                                   ctx_.sg->noninput_signals().size()));
  ctx_.synth_netlist = synthesize_all(*ctx_.synth_sg, opts_.mc,
                                      &ctx_.syntheses, ctx_.guard.get());
  ctx_.netlist = ctx_.synth_netlist;
  sr.metric("signals", static_cast<double>(ctx_.syntheses.size()));
  long minimizations = 0;
  for (const auto& s : ctx_.syntheses) minimizations += s.minimizations;
  sr.metric("minimizations", static_cast<double>(minimizations));
  sr.metric("literals", ctx_.synth_netlist->total_literals());
  sr.metric("c_elements", ctx_.synth_netlist->num_c_elements());
  sr.metric("max_gate_literals", ctx_.synth_netlist->max_gate_complexity());
}

void Flow::stage_decomp(StageReport& sr) {
  if (!ctx_.synth_netlist) {
    sr.ran = false;
    sr.skipped = true;
    sr.warnings.push_back("no unconstrained netlist (synth stage skipped)");
    return;
  }
  ctx_.decomp = tech_decomp2(*ctx_.synth_netlist);
  sr.metric("literals", ctx_.decomp->literals);
  sr.metric("c_elements", ctx_.decomp->c_elements);
  sr.metric("gates", static_cast<double>(ctx_.decomp->gates.size()));
}

void Flow::stage_map(StageReport& sr) {
  sr.metric("max_literals", opts_.mapper.library.max_literals);
  // Candidate counts vary per iteration, so record the pool width the
  // resynthesis loop can use at most (0 resolved to the hardware count).
  sr.metric("threads",
            resolve_worker_threads(opts_.mapper.threads,
                                   std::numeric_limits<std::size_t>::max()));
  // The synth stage's syntheses describe this very SG revision; when the
  // mapper's options synthesize the same covers it starts from them.
  const bool reuse = ctx_.synth_sg == ctx_.sg &&
                     opts_.mc.same_results(opts_.mapper.mc);
  MapResult result = technology_map(*ctx_.sg, opts_.mapper, ctx_.guard.get(),
                                    reuse ? &ctx_.syntheses : nullptr);
  sr.metric("candidates_planned",
            static_cast<double>(result.candidates_planned));
  sr.metric("resyntheses", static_cast<double>(result.resyntheses));
  sr.metric("resyntheses_pruned",
            static_cast<double>(result.resyntheses_pruned));
  sr.metric("signals_resynthesized",
            static_cast<double>(result.signals_resynthesized));
  sr.metric("minimizations", static_cast<double>(result.minimizations));
  sr.metric("graphs_materialized",
            static_cast<double>(result.graphs_materialized));
  if (!result.implementable)
    throw Error("not implementable with " +
                std::to_string(opts_.mapper.library.max_literals) +
                "-literal gates: " + result.failure);
  ctx_.mapped = std::move(result);
  ctx_.sg = ctx_.mapped->sg;
  ctx_.netlist = ctx_.mapped->build_netlist(opts_.mapper.mc);
  ctx_.syntheses = ctx_.mapped->syntheses;
  sr.metric("signals_inserted", ctx_.mapped->signals_inserted);
  sr.metric("states_after", static_cast<double>(ctx_.sg->num_states()));
  sr.metric("literals", ctx_.netlist->total_literals());
  sr.metric("c_elements", ctx_.netlist->num_c_elements());
  sr.metric("max_gate_literals", ctx_.netlist->max_gate_complexity());
}

void Flow::stage_check(StageReport& sr) {
  if (!ctx_.netlist) {
    sr.ran = false;
    sr.skipped = true;
    sr.warnings.push_back("no netlist to check (synth and map skipped)");
    return;
  }
  const Netlist& netlist = *ctx_.netlist;
  // The mapped netlist speaks the mapped SG's signals; the decomp result
  // belongs to the *unconstrained* netlist, so the wire rules only apply
  // when the flow stopped at the synth revision.
  const TechDecompResult* decomp =
      ctx_.decomp && !ctx_.mapped ? &*ctx_.decomp : nullptr;
  ctx_.nlint = nlint_netlist(netlist, decomp, opts_.check_opts.nlint);
  sr.metric("nlint_rules", ctx_.nlint->rules_run);
  sr.metric("nlint_errors", ctx_.nlint->errors);
  sr.metric("nlint_warnings", ctx_.nlint->warnings);
  for (const auto& d : ctx_.nlint->diagnostics)
    if (d.severity == NlintSeverity::kWarning)
      sr.warnings.push_back(std::string("nlint[") + nlint_rule_name(d.rule) +
                            "]: " + d.message);
  if (!ctx_.nlint->ok()) {
    // Structurally broken: fail typed (`spec`) without paying for the
    // equivalence proof — its verdicts would only restate the breakage.
    std::string failure = ctx_.nlint->first_error();
    if (ctx_.nlint->errors > 1)
      failure += " (+" + std::to_string(ctx_.nlint->errors - 1) + " more)";
    throw Error(failure);
  }
  ctx_.equiv =
      check_equivalence(netlist, opts_.check_opts, ctx_.guard.get());
  sr.metric("gates_checked", ctx_.equiv->gates_checked);
  sr.metric("gates_proven", ctx_.equiv->gates_proven);
  sr.metric("reach_states", static_cast<double>(ctx_.equiv->reach_states));
  if (!ctx_.equiv->ok) {
    std::string failure = ctx_.equiv->first_failure();
    if (ctx_.equiv->failures.size() > 1)
      failure +=
          " (+" + std::to_string(ctx_.equiv->failures.size() - 1) + " more)";
    throw Error(failure);
  }
}

void Flow::stage_verify(StageReport& sr) {
  if (!ctx_.netlist) {
    sr.ran = false;
    sr.skipped = true;
    sr.warnings.push_back("no netlist to verify (synth and map skipped)");
    return;
  }
  ctx_.verify = verify_speed_independence(*ctx_.netlist,
                                          opts_.verify_max_states,
                                          ctx_.guard.get());
  sr.metric("composite_states", static_cast<double>(ctx_.verify->num_states));
  sr.metric("speed_independent", ctx_.verify->ok ? 1 : 0);
  if (ctx_.verify->unverified) {
    // The exploration ran out of budget/deadline without finding a
    // violation: that is "unverified", not "hazard found".  kDegrade keeps
    // the stage ok with a warning; kFail makes it a typed stage failure
    // (still followed by emit, like any verify failure).
    sr.metric("unverified", 1);
    if (opts_.on_budget == FlowOptions::OnBudget::kDegrade) {
      sr.note("result", "unverified");
      sr.warnings.push_back("unverified: " + ctx_.verify->why);
      return;
    }
    sr.ok = false;
    sr.failure = ctx_.verify->why;
    sr.failure_kind = failure_kind_of(ctx_.verify->stopped);
    return;
  }
  if (!ctx_.verify->ok) throw Error(ctx_.verify->why);
}

void Flow::stage_emit(StageReport& sr) {
  int files = 0;
  const auto write_file = [&](const std::string& path,
                              const std::string& content) {
    std::ofstream out(path);
    if (!out) throw Error("cannot write " + path);
    out << content;
    ++files;
    sr.note("wrote", path);
  };
  const auto produce = [&](const std::string& path, std::string* capture,
                           const char* what, auto make) {
    if (path.empty() && !opts_.capture_emitted) return;
    if (!ctx_.netlist && std::string_view(what) != "sg") {
      sr.warnings.push_back(std::string("no netlist; cannot emit ") + what);
      return;
    }
    const std::string text = make();
    if (opts_.capture_emitted && capture) *capture = text;
    if (!path.empty()) write_file(path, text);
  };
  produce(opts_.emit_sg_path, &ctx_.emitted_sg, "sg",
          [&] { return write_sg_string(*ctx_.sg, ctx_.name); });
  produce(opts_.emit_verilog_path, &ctx_.emitted_verilog, "verilog",
          [&] { return write_verilog_string(*ctx_.netlist, ctx_.name); });
  produce(opts_.emit_eqn_path, &ctx_.emitted_eqn, "eqn",
          [&] { return write_eqn_string(*ctx_.netlist, ctx_.name); });
  sr.metric("files_written", files);
}

}  // namespace sitm
