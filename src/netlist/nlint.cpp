#include "netlist/nlint.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

namespace sitm {

namespace {

constexpr const char* kRuleNames[kNumNlintRules] = {
    "missing-impl", "bad-reference", "empty-network",  "drive-fight",
    "fanin-limit",  "unused-wire",   "duplicate-gate",
};

std::string signal_list(const StateGraph& sg, std::uint64_t mask) {
  std::string out;
  for (int v = 0; v < 64; ++v) {
    if (!((mask >> v) & 1u)) continue;
    if (!out.empty()) out += ", ";
    out += v < sg.num_signals() ? sg.signal(v).name
                                : "<signal " + std::to_string(v) + ">";
  }
  return out;
}

/// Strip the free-inversion marker from a decomposed net name.
std::string_view bare_net(std::string_view name) {
  if (!name.empty() && name.front() == '!') name.remove_prefix(1);
  return name;
}

void check_signal_drivers(const Netlist& netlist, NlintReport& report) {
  const StateGraph& sg = netlist.sg();
  std::vector<int> drivers(static_cast<std::size_t>(sg.num_signals()), 0);
  for (const SignalImpl& impl : netlist.impls())
    if (impl.signal >= 0 && impl.signal < sg.num_signals())
      drivers[static_cast<std::size_t>(impl.signal)] += 1;
  for (int s = 0; s < sg.num_signals(); ++s) {
    const Signal& sig = sg.signal(s);
    if (!is_noninput(sig.kind)) continue;
    if (drivers[static_cast<std::size_t>(s)] == 0) {
      report.add(NlintRule::kMissingImpl, NlintSeverity::kError, sig.name,
                 "non-input signal '" + sig.name + "' has no implementation");
    } else if (drivers[static_cast<std::size_t>(s)] > 1) {
      report.add(NlintRule::kMissingImpl, NlintSeverity::kError, sig.name,
                 "signal '" + sig.name + "' is driven by " +
                     std::to_string(drivers[static_cast<std::size_t>(s)]) +
                     " implementations");
    }
  }
}

/// True when the impl's drive target and gate fanins are structurally sound;
/// the per-function rules below are only meaningful when this holds.
bool check_references(const StateGraph& sg, const SignalImpl& impl,
                      NlintReport& report) {
  if (impl.signal < 0 || impl.signal >= sg.num_signals()) {
    report.add(NlintRule::kBadReference, NlintSeverity::kError,
               "<signal " + std::to_string(impl.signal) + ">",
               "implementation drives undeclared signal index " +
                   std::to_string(impl.signal) + " (graph has " +
                   std::to_string(sg.num_signals()) + " signals)");
    return false;
  }
  const std::string& name = sg.signal(impl.signal).name;
  bool ok = true;
  if (!is_noninput(sg.signal(impl.signal).kind)) {
    report.add(NlintRule::kBadReference, NlintSeverity::kError, name,
               "implementation drives input signal '" + name +
                   "' (inputs belong to the environment)");
    ok = false;
  }
  const std::uint64_t declared =
      sg.num_signals() >= 64
          ? ~std::uint64_t{0}
          : (std::uint64_t{1} << sg.num_signals()) - 1;
  const std::uint64_t support = impl.set.support() | impl.reset.support();
  if (const std::uint64_t bad = support & ~declared) {
    report.add(NlintRule::kBadReference, NlintSeverity::kError, name,
               "gate for '" + name + "' reads undeclared signal indices: " +
                   signal_list(sg, bad));
    ok = false;
  }
  return ok;
}

void check_networks(const StateGraph& sg, const SignalImpl& impl,
                    NlintReport& report) {
  const std::string& name = sg.signal(impl.signal).name;
  if (impl.combinational) return;
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(sg.num_signals()));
  for (const Signal& s : sg.signals()) names.push_back(s.name);
  if (impl.set.empty())
    report.add(NlintRule::kEmptyNetwork, NlintSeverity::kError, name,
               "sequential signal '" + name + "' has an empty set network " +
                   "(the C element could never rise)");
  if (impl.reset.empty())
    report.add(NlintRule::kEmptyNetwork, NlintSeverity::kError, name,
               "sequential signal '" + name + "' has an empty reset network " +
                   "(the C element could never fall)");
  for (const Cube& s : impl.set.cubes()) {
    for (const Cube& r : impl.reset.cubes()) {
      if (!s.intersects(r)) continue;
      report.add(NlintRule::kDriveFight, NlintSeverity::kWarning, name,
                 "set and reset networks of '" + name +
                     "' intersect (cube '" +
                     Cover(impl.set.num_vars(), {s}).to_string(names) +
                     "' meets '" +
                     Cover(impl.reset.num_vars(), {r}).to_string(names) +
                     "'): a shared minterm outside the don't-care space is a "
                     "C-element drive fight");
      return;  // one diagnostic per signal is enough to point at the pair
    }
  }
}

void check_fanin(const StateGraph& sg, const SignalImpl& impl, int max_fanin,
                 NlintReport& report) {
  if (max_fanin <= 0) return;
  const std::uint64_t support = impl.set.support() | impl.reset.support();
  const int fanin = __builtin_popcountll(support);
  if (fanin <= max_fanin) return;
  const std::string& name = sg.signal(impl.signal).name;
  report.add(NlintRule::kFaninLimit, NlintSeverity::kWarning, name,
             "gC implementation of '" + name + "' has fanin " +
                 std::to_string(fanin) + " (limit " +
                 std::to_string(max_fanin) + "): " + signal_list(sg, support));
}

void check_decomp(const Netlist& netlist, const TechDecompResult& decomp,
                  NlintReport& report) {
  const StateGraph& sg = netlist.sg();
  // Every net with a consumer: gate fanins plus the network's top-level
  // sinks — a combinational root wire carries the signal's own name, a
  // sequential pair feeds the C element through <name>_set / <name>_reset.
  std::vector<std::string> consumed;
  for (const SimpleGate& g : decomp.gates) {
    consumed.emplace_back(bare_net(g.in0));
    consumed.emplace_back(bare_net(g.in1));
  }
  for (const SignalImpl& impl : netlist.impls()) {
    if (impl.signal < 0 || impl.signal >= sg.num_signals()) continue;
    const std::string& name = sg.signal(impl.signal).name;
    if (impl.combinational) {
      consumed.push_back(name);
    } else {
      consumed.push_back(name + "_set");
      consumed.push_back(name + "_reset");
    }
  }
  std::sort(consumed.begin(), consumed.end());
  for (const SimpleGate& g : decomp.gates) {
    if (g.out.empty() ||
        std::binary_search(consumed.begin(), consumed.end(), g.out))
      continue;
    report.add(NlintRule::kUnusedWire, NlintSeverity::kWarning, g.out,
               "decomposed gate output '" + g.out + "' is never consumed");
  }
  // Duplicate gates up to operand order (AND/OR are commutative).
  std::map<std::string, const SimpleGate*> seen;
  for (const SimpleGate& g : decomp.gates) {
    std::string a = g.in0, b = g.in1;
    if (g.op != SimpleGate::Op::kBuf && b < a) std::swap(a, b);
    const char* op = g.op == SimpleGate::Op::kAnd  ? "and"
                     : g.op == SimpleGate::Op::kOr ? "or"
                                                   : "buf";
    const std::string key = std::string(op) + "(" + a + "," + b + ")";
    const auto [it, inserted] = seen.emplace(key, &g);
    if (!inserted)
      report.add(NlintRule::kDuplicateGate, NlintSeverity::kWarning, g.out,
                 "gates '" + it->second->out + "' and '" + g.out +
                     "' both compute " + key);
  }
}

}  // namespace

const char* nlint_rule_name(NlintRule rule) {
  return kRuleNames[static_cast<int>(rule)];
}

const char* nlint_severity_name(NlintSeverity severity) {
  return severity == NlintSeverity::kError ? "error" : "warning";
}

std::string NlintReport::first_error() const {
  for (const auto& d : diagnostics)
    if (d.severity == NlintSeverity::kError) return "nlint: " + d.message;
  return {};
}

void NlintReport::add(NlintRule rule, NlintSeverity severity,
                      std::string subject, std::string message) {
  (severity == NlintSeverity::kError ? errors : warnings) += 1;
  diagnostics.push_back(
      NlintDiagnostic{rule, severity, std::move(subject), std::move(message)});
}

Json NlintReport::to_json() const {
  Json j = Json::object();
  j.set("ok", ok());
  j.set("errors", errors);
  j.set("warnings", warnings);
  j.set("rules_run", rules_run);
  Json ds = Json::array();
  for (const auto& d : diagnostics) {
    Json dj = Json::object();
    dj.set("rule", nlint_rule_name(d.rule));
    dj.set("severity", nlint_severity_name(d.severity));
    if (!d.subject.empty()) dj.set("subject", d.subject);
    dj.set("message", d.message);
    ds.push(std::move(dj));
  }
  j.set("diagnostics", std::move(ds));
  return j;
}

NlintReport nlint_netlist(const Netlist& netlist,
                          const TechDecompResult* decomp,
                          const NlintOptions& opts) {
  NlintReport report;
  const StateGraph& sg = netlist.sg();
  check_signal_drivers(netlist, report);
  for (const SignalImpl& impl : netlist.impls()) {
    if (!check_references(sg, impl, report)) continue;
    check_networks(sg, impl, report);
    check_fanin(sg, impl, opts.max_gc_fanin, report);
  }
  report.rules_run = 5;
  if (decomp) {
    check_decomp(netlist, *decomp, report);
    report.rules_run = kNumNlintRules;
  }
  return report;
}

}  // namespace sitm
