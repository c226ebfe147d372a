// sitm — command-line driver for the technology mapping flow.
//
//   sitm info    specification statistics & checks
//   sitm lint    static spec diagnostics (stg/lint): exit 1 when any
//                `error`-severity rule fires, 0 on clean/warnings
//   sitm map     staged flow: CSC-resolve + map
//   sitm verify  synthesize + gate-level SI check
//   sitm check   netlist static analysis (nlint) + equivalence proof of
//                every gate against its excitation function; --mutate
//                corrupts the synthesized netlist first and exits 0 when the
//                checker rejects the mutant with a counterexample
//   sitm batch   full flow over a spec corpus
//   sitm bench   dump a suite benchmark as .g
//   sitm serve   persistent synthesis service (src/serve/server.hpp)
//
// Run `sitm` with no arguments for each command's arguments.  The flow
// options the commands share (-i, --map-threads, --stop-after, ...) are
// the rows of the option table (src/flow/options.cpp), and usage() lists
// them.  map/verify/check/batch are thin shells over the staged Flow engine
// (src/flow/), each stage with a structured report serializable to JSON.
// Files ending in ".sg" are parsed as State Graphs, everything else as
// astg ".g" Signal Transition Graphs.
//
// Resource governance: --deadline-ms/--max-states/--work-budget bound a run
// (stage failures carry a failure_kind of deadline/budget in the report),
// --on-budget picks between hard failure and graceful degradation (csc
// commits best-so-far, verify reports "unverified"), and the SITM_FAULTS
// environment variable arms the deterministic fault-injection harness
// (util/fault.hpp) for robustness testing.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "benchlib/suite.hpp"
#include "flow/batch.hpp"
#include "flow/flow.hpp"
#include "flow/options.hpp"
#include "serve/server.hpp"
#include "sg/properties.hpp"
#include "stg/g_io.hpp"
#include "stg/lint.hpp"
#include "stg/load.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace {

using namespace sitm;

/// Argument placeholder of a flow flag in the usage text, by OptionKind.
constexpr const char* kPlaceholders[] = {" N",     " N",     "",      " MS",
                                         "",       " STAGE", " STAGE", " FILE"};
static_assert(std::size(kPlaceholders) ==
              static_cast<std::size_t>(OptionKind::kPath) + 1);

int usage() {
  std::string text =
      "usage:\n"
      "  sitm info   <file.g|file.sg>\n"
      "  sitm lint   <file.g|file.sg> [--json out.json]\n"
      "  sitm map    <file> [--threads N] [--json out.json] [flow options]\n"
      "  sitm verify <file> [--threads N] [--json out.json] [flow options]\n"
      "  sitm check  <file> [--json out.json] "
      "[--mutate flip-literal|drop-cube|swap-set-reset[:N]]\n"
      "              [flow options]\n"
      "  sitm batch  <dir|suite> [--threads N] [--json out.json] "
      "[--item-deadline-ms MS]\n"
      "              [--retry-degraded] [flow options]\n"
      "  sitm bench  <name|list>\n"
      "  sitm serve  --pipe | --socket PATH [--threads N] [--cache-mb N] "
      "[flow options]\n"
      "flow options (field, [serve request key]):\n";
  for (const OptionRow& row : option_table()) {
    if (!row.flags[0]) continue;
    std::string spelling = std::string("  ") + row.flags[0];
    if (row.flags[1]) spelling += std::string(" | ") + row.flags[1];
    spelling += kPlaceholders[static_cast<int>(row.kind)];
    for (int c = 0; row.choices && row.choices[c]; ++c)
      spelling += (c ? "|" : " ") + std::string(row.choices[c]);
    spelling.resize(std::max<std::size_t>(spelling.size() + 1, 28), ' ');
    text += spelling + row.field;
    if (row.key) text += std::string(" [") + row.key + "]";
    text += "\n";
  }
  text +=
      "stages: load reachability properties csc synth decomp map check "
      "verify emit\n";
  std::fputs(text.c_str(), stderr);
  return 2;
}

/// Run a strict reader on command-line values; a bad value is reported
/// and the caller answers with usage().
template <class Read>
bool read_args(Read&& read) {
  try {
    read();
    return true;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
}

/// The flow flags of the option table plus the CLI-only arguments.
/// consume() returns false on an unknown flag or a bad value.
struct FlowArgs {
  FlowOptions flow;
  std::string json_path;
  int batch_threads = 1;
  bool synth_threads_set = false;
  double item_deadline_ms = 0;
  bool retry_degraded = false;

  bool consume(int argc, char** argv, int& i, std::string* path) {
    const char* flag = argv[i];
    const std::string_view arg = flag;
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (const OptionRow* row = option_by_flag(arg)) {
      if (row->kind != OptionKind::kBool && !value) return false;
      if (row->kind != OptionKind::kBool) ++i;
      synth_threads_set |= arg == "--synth-threads";
      return read_args(
          [&] { row->set(flow, row->cli_value(arg, value), flag); });
    }
    if (arg == "--retry-degraded") {
      retry_degraded = true;
      return true;
    }
    if (path && path->empty() && arg[0] != '-') {
      *path = arg;
      return true;
    }
    if (!value) return false;
    ++i;
    if (arg == "--json") {
      json_path = value;
      return true;
    }
    if (arg == "--threads") {
      // Single-spec commands feed this to the synth stage unless
      // --synth-threads is given; batch uses it for the spec pool and serve
      // for its request workers.
      return read_args(
          [&] { batch_threads = want_int(cli_json(value), flag, 0); });
    }
    if (arg == "--item-deadline-ms") {
      // Batch: per-item deadline plus the overdue-item watchdog.
      return read_args(
          [&] { item_deadline_ms = want_ms(cli_json(value), flag); });
    }
    return false;
  }
};

void write_json_file(const std::string& path, const Json& j) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  out << j.dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Human summary of one flow run: per-stage line with the key metrics.
void print_report(const FlowReport& report) {
  for (const auto& sr : report.stages) {
    if (!sr.ran && !sr.skipped) continue;
    std::printf("  %-12s", stage_name(sr.stage));
    if (sr.skipped && !sr.ran) {
      std::printf(" skipped\n");
      continue;
    }
    std::printf(" %8.2f ms ", sr.wall_ms);
    for (const auto& [k, v] : sr.metrics)
      std::printf(" %s=%g", k.c_str(), v);
    if (!sr.ok)
      std::printf("  FAILED (%s): %s", failure_kind_name(sr.failure_kind),
                  sr.failure.c_str());
    std::printf("\n");
    for (const auto& w : sr.warnings)
      std::printf("               warning: %s\n", w.c_str());
  }
}

int cmd_info(const std::string& path) {
  const Spec spec = load_spec_file(path);
  if (spec.stg)
    std::printf("%s: %zu transitions, %zu places\n", spec.name.c_str(),
                spec.stg->num_transitions(), spec.stg->num_places());
  const StateGraph sg =
      spec.sg ? *spec.sg : spec.stg->to_state_graph();
  std::printf("%s: %d signals (%zu inputs), %zu states, %zu arcs\n",
              spec.name.c_str(), sg.num_signals(), sg.input_signals().size(),
              sg.num_states(), sg.num_arcs());
  auto report = [&](const char* what, const PropertyResult& r) {
    std::printf("  %-20s %s\n", what, r ? "ok" : r.why.c_str());
  };
  report("consistency:", check_consistency(sg));
  report("determinism:", check_determinism(sg));
  report("commutativity:", check_commutativity(sg));
  report("output persistency:", check_output_persistency(sg));
  report("CSC:", check_csc(sg));
  report("USC:", check_usc(sg));
  if (check_implementability(sg)) {
    const Netlist netlist = synthesize_all(sg);
    std::printf("  unconstrained implementation: %d literals, %d C elements, "
                "max gate %d literals\n",
                netlist.total_literals(), netlist.num_c_elements(),
                netlist.max_gate_complexity());
  }
  return 0;
}

int cmd_map(int argc, char** argv) {
  std::string path;
  FlowArgs args;
  for (int i = 2; i < argc; ++i)
    if (!args.consume(argc, argv, i, &path)) return usage();
  if (path.empty()) return usage();
  if (!args.synth_threads_set) args.flow.mc.threads = args.batch_threads;

  Flow flow(args.flow);
  const FlowReport report = flow.run_file(path);
  print_report(report);
  const FlowContext& ctx = flow.context();
  if (ctx.netlist && report.stage(Stage::kMap).ran)
    std::printf("mapped onto <=%d-literal gates:\n%s",
                args.flow.mapper.library.max_literals,
                ctx.netlist->to_string().c_str());
  if (!args.json_path.empty())
    write_json_file(args.json_path, report.to_json());
  if (!report.ok) {
    std::fprintf(stderr, "%s: %s failed: %s\n", report.name.c_str(),
                 stage_name(*report.failed_stage), report.failure.c_str());
    return 1;
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  std::string path;
  FlowArgs args;
  for (int i = 2; i < argc; ++i)
    if (!args.consume(argc, argv, i, &path)) return usage();
  if (path.empty()) return usage();
  if (!args.synth_threads_set) args.flow.mc.threads = args.batch_threads;

  // Unconstrained synthesis + gate-level check: the map and decomp stages
  // stay out of the way, matching the historical `sitm verify`.
  args.flow.set_skip(Stage::kDecomp);
  args.flow.set_skip(Stage::kMap);
  Flow flow(args.flow);
  const FlowReport report = flow.run_file(path);
  const FlowContext& ctx = flow.context();
  if (!args.json_path.empty())
    write_json_file(args.json_path, report.to_json());
  if (report.ok && ctx.verify) {
    std::printf("%s: speed-independent (%zu composite states)\n",
                path.c_str(), ctx.verify->num_states);
    return 0;
  }
  if (report.ok) {
    // --stop-after / --skip cut the flow before the check could run; be
    // explicit that nothing was verified rather than claiming success.
    std::printf("%s: verify stage did not run (stopped or skipped)\n",
                path.c_str());
    return 1;
  }
  std::printf("%s: %s\n", path.c_str(), report.failure.c_str());
  return 1;
}

int cmd_lint(int argc, char** argv) {
  std::string path, json_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) return usage();
      json_path = argv[++i];
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  const Spec spec = load_spec_file(path);
  const LintReport report = lint_spec(spec);
  for (const auto& d : report.diagnostics)
    std::printf("%s: %s[%s]%s%s: %s\n", spec.name.c_str(),
                lint_severity_name(d.severity), lint_rule_name(d.rule),
                d.subject.empty() ? "" : " ",
                d.subject.empty() ? "" : d.subject.c_str(), d.message.c_str());
  std::printf("%s: %d error(s), %d warning(s)\n", spec.name.c_str(),
              report.errors, report.warnings);
  if (!json_path.empty()) {
    Json j = report.to_json();
    j.set("name", spec.name);
    write_json_file(json_path, j);
  }
  return report.ok() ? 0 : 1;
}

/// Pretty counterexample line for a failed gate verdict.
void print_verdicts(const EquivReport& equiv, const StateGraph& sg) {
  for (const GateVerdict& f : equiv.failures) {
    std::printf("  %s/%s: %s\n", f.name.c_str(), f.network.c_str(),
                f.why.c_str());
    if (f.counterexample_state != kNoState)
      std::printf("    counterexample: state %d, code %s\n",
                  f.counterexample_state,
                  sg.code_string(f.counterexample_state).c_str());
  }
}

/// `sitm check --mutate KIND[:N]`: synthesize, corrupt the netlist, and
/// demonstrate that the checker rejects the mutant.  Exit 0 = rejected
/// (self-test passed), 1 = mutant survived, 2 = could not set up.
int cmd_check_mutate(const std::string& path, const std::string& mutate_spec,
                     FlowArgs args) {
  std::string kind_name = mutate_spec;
  int which = 0;
  if (const auto colon = mutate_spec.find(':'); colon != std::string::npos) {
    kind_name = mutate_spec.substr(0, colon);
    const char* site = mutate_spec.c_str() + colon + 1;
    if (!read_args([&] { which = want_int(cli_json(site), "--mutate", 0); }))
      return usage();
  }
  NetlistMutation kind;
  if (!parse_netlist_mutation(kind_name, &kind)) {
    std::fprintf(stderr,
                 "--mutate wants flip-literal|drop-cube|swap-set-reset, "
                 "got %s\n",
                 kind_name.c_str());
    return usage();
  }

  // Stopping after map keeps the check stage off the un-mutated netlist.
  args.flow.stop_after = Stage::kMap;
  Flow flow(args.flow);
  const FlowReport report = flow.run_file(path);
  if (!report.ok || !flow.context().netlist) {
    std::fprintf(stderr, "%s: cannot synthesize a netlist to mutate: %s\n",
                 report.name.c_str(), report.failure.c_str());
    return 2;
  }
  Netlist mutant = *flow.context().netlist;
  if (!mutate_netlist(mutant, kind, which)) {
    std::fprintf(stderr, "%s: no %s site #%d in this netlist\n",
                 report.name.c_str(), netlist_mutation_name(kind), which);
    return 2;
  }

  // The mutant goes through the flow's check stage.  A mutation keeps every
  // network non-empty and every reference in range, so nlint passes it and
  // the equivalence proof gives the verdict and its counterexample.
  const FlowReport checked = flow.check_netlist(std::move(mutant));
  const FlowContext& ctx = flow.context();
  // A skipped stage, or one a fault, budget or deadline stopped, gives no
  // verdict on the mutant.
  if (!ctx.equiv ||
      (!checked.ok && checked.failure_kind != FailureKind::kSpec)) {
    std::fprintf(stderr, "%s: the check stage gave no verdict %s\n",
                 report.name.c_str(), checked.failure.c_str());
    return 2;
  }
  const EquivReport& equiv = *ctx.equiv;
  print_verdicts(equiv, ctx.netlist->sg());
  const bool rejected = !checked.ok;
  std::printf("%s: %s mutant #%d %s\n", report.name.c_str(),
              netlist_mutation_name(kind), which,
              rejected ? "rejected" : "NOT rejected");
  if (!args.json_path.empty()) {
    Json j = Json::object();
    j.set("name", report.name);
    j.set("mutation", netlist_mutation_name(kind));
    j.set("site", which);
    j.set("rejected", rejected);
    j.set("failure_kind", failure_kind_name(checked.failure_kind));
    j.set("failure", checked.failure);
    if (ctx.nlint) j.set("nlint", ctx.nlint->to_json());
    j.set("equiv", equiv.to_json());
    write_json_file(args.json_path, j);
  }
  return rejected ? 0 : 1;
}

int cmd_check(int argc, char** argv) {
  std::string path, mutate_spec;
  FlowArgs args;
  args.flow.check = true;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--mutate") {
      if (i + 1 >= argc) return usage();
      mutate_spec = argv[++i];
    } else if (!args.consume(argc, argv, i, &path)) {
      return usage();
    }
  }
  if (path.empty()) return usage();
  if (!args.synth_threads_set) args.flow.mc.threads = args.batch_threads;
  if (!mutate_spec.empty())
    return cmd_check_mutate(path, mutate_spec, std::move(args));

  if (!args.flow.stop_after) args.flow.stop_after = Stage::kCheck;
  Flow flow(args.flow);
  const FlowReport report = flow.run_file(path);
  print_report(report);
  const FlowContext& ctx = flow.context();
  if (ctx.nlint)
    for (const auto& d : ctx.nlint->diagnostics)
      if (d.severity == NlintSeverity::kError)
        std::printf("  nlint[%s] %s: %s\n", nlint_rule_name(d.rule),
                    d.subject.c_str(), d.message.c_str());
  if (ctx.equiv && ctx.sg) print_verdicts(*ctx.equiv, *ctx.sg);
  if (report.ok && ctx.equiv)
    std::printf("%s: %d/%d gates proven equivalent (%zu reachable codes)\n",
                report.name.c_str(), ctx.equiv->gates_proven,
                ctx.equiv->gates_checked, ctx.equiv->reach_states);
  if (!args.json_path.empty()) {
    Json j = Json::object();
    j.set("name", report.name);
    j.set("report", report.to_json());
    if (ctx.nlint) j.set("nlint", ctx.nlint->to_json());
    if (ctx.equiv) j.set("equiv", ctx.equiv->to_json());
    write_json_file(args.json_path, j);
  }
  if (!report.ok) {
    std::fprintf(stderr, "%s: %s failed: %s\n", report.name.c_str(),
                 stage_name(*report.failed_stage), report.failure.c_str());
    return 1;
  }
  return 0;
}

int cmd_batch(int argc, char** argv) {
  std::string target;
  FlowArgs args;
  args.flow.lint = true;   // the corpus gate; --no-lint opts out
  args.flow.check = true;  // output-side gate; --no-check opts out
  for (int i = 2; i < argc; ++i)
    if (!args.consume(argc, argv, i, &target)) return usage();
  if (target.empty()) return usage();

  if (!args.flow.emit_sg_path.empty() ||
      !args.flow.emit_verilog_path.empty() ||
      !args.flow.emit_eqn_path.empty()) {
    // Every concurrent flow would truncate the same file.
    std::fprintf(stderr,
                 "batch does not take -o/--verilog/--eqn (one file, many "
                 "specs)\n");
    return usage();
  }

  BatchOptions opts;
  opts.flow = args.flow;
  opts.threads = args.batch_threads;
  opts.item_deadline_ms = args.item_deadline_ms;
  opts.retry_degraded = args.retry_degraded;
  opts.on_report = [](const FlowReport& r) {
    std::printf("%-20s %s  %8.1f ms%s%s\n", r.name.c_str(),
                r.ok ? "ok    " : "FAILED", r.total_ms,
                r.ok ? "" : "  ", r.ok ? "" : r.failure.c_str());
  };

  const BatchResult result = target == "suite"
                                 ? run_batch_suite({}, opts)
                                 : run_batch_files(
                                       collect_spec_files(target), opts);
  std::printf("%d/%zu ok, %d failed, %.1f ms total\n", result.num_ok,
              result.items.size(), result.num_failed, result.total_ms);
  if (!args.json_path.empty())
    write_json_file(args.json_path, result.to_json());
  return result.all_ok() ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  FlowArgs args;
  args.flow.lint = true;   // fast reject path; requests can override
  args.flow.check = true;  // output-side gate; requests can override
  bool pipe = false;
  std::string socket_path;
  std::uint64_t cache_mb = 256;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pipe") {
      pipe = true;
    } else if (arg == "--socket") {
      if (i + 1 >= argc) return usage();
      socket_path = argv[++i];
    } else if (arg == "--cache-mb") {
      if (i + 1 >= argc || !read_args([&] {
            cache_mb = want_count(cli_json(argv[++i]), "--cache-mb", 1);
          }))
        return usage();
      if (cache_mb > (std::numeric_limits<std::size_t>::max() >> 20)) {
        std::fprintf(stderr, "--cache-mb is too large\n");
        return usage();
      }
    } else if (!args.consume(argc, argv, i, nullptr)) {
      return usage();
    }
  }
  if (pipe == !socket_path.empty()) {
    std::fprintf(stderr,
                 "serve wants exactly one of --pipe or --socket PATH\n");
    return usage();
  }
  if (!args.flow.emit_sg_path.empty() || !args.flow.emit_verilog_path.empty() ||
      !args.flow.emit_eqn_path.empty() || !args.json_path.empty() ||
      args.item_deadline_ms > 0 || args.retry_degraded) {
    std::fprintf(stderr,
                 "serve does not take emit/json/batch flags (responses carry "
                 "the results; per-request deadlines come from the request "
                 "or --deadline-ms)\n");
    return usage();
  }

  serve::ServeOptions opts;
  opts.flow = args.flow;
  opts.threads = args.batch_threads;
  opts.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  // --deadline-ms becomes the default per-request deadline; each request
  // may override it with its own "deadline_ms" field.
  opts.request_deadline_ms = args.flow.deadline_ms;

  serve::ServeEngine engine(opts);
  return pipe ? serve::serve_pipe(engine, std::cin, std::cout)
              : serve::serve_socket(engine, socket_path);
}

int cmd_bench(const std::string& which) {
  if (which == "list") {
    for (const auto& name : bench::suite_names())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  const auto entry = bench::suite_benchmark(which);
  std::cout << write_g_string(entry.stg, entry.name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  // Arm the deterministic fault harness from SITM_FAULTS (no-op when
  // unset); a malformed spec is a usage error, not something to run past.
  if (!sitm::fault::configure_from_env()) return 2;
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmd_info(argv[2]);
    if (cmd == "lint") return cmd_lint(argc, argv);
    if (cmd == "map") return cmd_map(argc, argv);
    if (cmd == "verify") return cmd_verify(argc, argv);
    if (cmd == "check") return cmd_check(argc, argv);
    if (cmd == "batch") return cmd_batch(argc, argv);
    if (cmd == "bench") return cmd_bench(argv[2]);
    if (cmd == "serve") return cmd_serve(argc, argv);
  } catch (const sitm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
