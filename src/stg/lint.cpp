#include "stg/lint.hpp"

#include <algorithm>
#include <utility>

namespace sitm {

namespace {

constexpr const char* kRuleNames[kNumLintRules] = {
    "alternation",   "dangling-arc",   "duplicate-arc",        "unreachable",
    "idle-input",    "unsafe-marking", "unconstrained-output",
};

const char* signal_role(SignalKind kind) {
  switch (kind) {
    case SignalKind::kInput: return "input";
    case SignalKind::kOutput: return "output";
    case SignalKind::kInternal: return "internal";
  }
  return "?";
}

}  // namespace

const char* lint_rule_name(LintRule rule) {
  return kRuleNames[static_cast<int>(rule)];
}

const char* lint_severity_name(LintSeverity severity) {
  return severity == LintSeverity::kError ? "error" : "warning";
}

std::string LintReport::first_error() const {
  for (const auto& d : diagnostics)
    if (d.severity == LintSeverity::kError) return "lint: " + d.message;
  return {};
}

void LintReport::add(LintRule rule, LintSeverity severity, std::string subject,
                     std::string message) {
  (severity == LintSeverity::kError ? errors : warnings) += 1;
  diagnostics.push_back(LintDiagnostic{rule, severity, std::move(subject),
                                       std::move(message)});
}

Json LintReport::to_json() const {
  Json j = Json::object();
  j.set("ok", ok());
  j.set("errors", errors);
  j.set("warnings", warnings);
  Json ds = Json::array();
  for (const auto& d : diagnostics) {
    Json dj = Json::object();
    dj.set("rule", lint_rule_name(d.rule));
    dj.set("severity", lint_severity_name(d.severity));
    if (!d.subject.empty()) dj.set("subject", d.subject);
    dj.set("message", d.message);
    ds.push(std::move(dj));
  }
  j.set("diagnostics", std::move(ds));
  return j;
}

LintReport lint_stg(const Stg& stg) {
  LintReport report;
  const int num_signals = stg.num_signals();
  const auto num_trans = static_cast<TransId>(stg.num_transitions());
  const auto num_places = static_cast<PlaceId>(stg.num_places());

  auto place_name = [&](PlaceId p) {
    const auto& pl = stg.place(p);
    return pl.name.empty() ? "<implicit p" + std::to_string(p) + ">" : pl.name;
  };

  // --- alternation: per-signal edge polarities ---------------------------
  std::vector<int> rising(static_cast<std::size_t>(num_signals), 0);
  std::vector<int> falling(static_cast<std::size_t>(num_signals), 0);
  for (TransId t = 0; t < num_trans; ++t) {
    const StgTransition& tr = stg.transition(t);
    (tr.rising ? rising : falling)[static_cast<std::size_t>(tr.signal)] += 1;
  }
  for (int s = 0; s < num_signals; ++s) {
    const auto si = static_cast<std::size_t>(s);
    if ((rising[si] > 0) == (falling[si] > 0)) continue;
    const char* has = rising[si] > 0 ? "rising" : "falling";
    const char* missing = rising[si] > 0 ? "falling" : "rising";
    report.add(LintRule::kAlternation, LintSeverity::kError,
               stg.signal(s).name,
               "signal '" + stg.signal(s).name + "' has " +
                   std::to_string(rising[si] + falling[si]) + " " + has +
                   " transition(s) but no " + missing +
                   " transition: it can never alternate back");
  }

  // --- alternation: direct same-polarity succession through one place ----
  // A place whose producer and consumer are edges of the same signal with
  // the same polarity chains a+ ... a+ with no a- forced in between; unless
  // some concurrent a- always interleaves, the labeling is inconsistent.
  std::vector<std::pair<TransId, TransId>> chained;
  for (PlaceId p = 0; p < num_places; ++p) {
    const StgPlace& pl = stg.place(p);
    for (const TransId t1 : pl.pre)
      for (const TransId t2 : pl.post) {
        const StgTransition& a = stg.transition(t1);
        const StgTransition& b = stg.transition(t2);
        if (a.signal != b.signal || a.rising != b.rising) continue;
        if (std::find(chained.begin(), chained.end(),
                      std::make_pair(t1, t2)) != chained.end())
          continue;
        chained.emplace_back(t1, t2);
        report.add(LintRule::kAlternation, LintSeverity::kWarning,
                   stg.transition_string(t1),
                   "place '" + place_name(p) + "' chains " +
                       stg.transition_string(t1) + " directly into " +
                       stg.transition_string(t2) +
                       " without the opposite edge in between");
      }
  }

  // --- dangling arcs ------------------------------------------------------
  for (TransId t = 0; t < num_trans; ++t) {
    if (stg.pre_places(t).empty())
      report.add(LintRule::kDanglingArc, LintSeverity::kError,
                 stg.transition_string(t),
                 "transition " + stg.transition_string(t) +
                     " has no input places: it is enabled forever and the "
                     "net cannot be 1-safe");
    if (stg.post_places(t).empty())
      report.add(LintRule::kDanglingArc, LintSeverity::kWarning,
                 stg.transition_string(t),
                 "transition " + stg.transition_string(t) +
                     " has no output places: its tokens vanish and the net "
                     "cannot be live");
  }
  for (PlaceId p = 0; p < num_places; ++p) {
    const StgPlace& pl = stg.place(p);
    if (pl.pre.empty() && pl.post.empty())
      report.add(LintRule::kDanglingArc, LintSeverity::kWarning, place_name(p),
                 "place '" + place_name(p) +
                     "' is connected to no transition");
  }

  // --- duplicate arcs -----------------------------------------------------
  for (TransId t = 0; t < num_trans; ++t) {
    auto dup_in = [&](const std::vector<PlaceId>& places, const char* dir) {
      std::vector<PlaceId> sorted(places);
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t i = 1; i < sorted.size(); ++i)
        if (sorted[i] == sorted[i - 1] && (i == 1 || sorted[i] != sorted[i - 2]))
          report.add(LintRule::kDuplicateArc, LintSeverity::kError,
                     stg.transition_string(t),
                     std::string("duplicate ") + dir + " arc between place '" +
                         place_name(sorted[i]) + "' and transition " +
                         stg.transition_string(t) +
                         ": firing would need/produce two tokens in a 1-safe "
                         "net");
    };
    dup_in(stg.pre_places(t), "place->transition");
    dup_in(stg.post_places(t), "transition->place");
  }

  // --- unsafe marking hints ----------------------------------------------
  const auto& marking = stg.initial_marking();
  if (marking.empty() && num_trans > 0)
    report.add(LintRule::kUnsafeMarking, LintSeverity::kError, "",
               "initial marking is empty: no transition can ever fire");
  {
    std::vector<PlaceId> sorted(marking);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 1; i < sorted.size(); ++i)
      if (sorted[i] == sorted[i - 1] && (i == 1 || sorted[i] != sorted[i - 2]))
        report.add(LintRule::kUnsafeMarking, LintSeverity::kError,
                   place_name(sorted[i]),
                   "place '" + place_name(sorted[i]) +
                       "' is marked twice: the net starts outside the 1-safe "
                       "regime");
  }

  // --- unreachable transitions (optimistic token-flow closure) -----------
  // Places reachable := initial marking; a transition fires once all its
  // input places are reachable (token counts ignored — this optimism makes
  // the check sound: what even the closure cannot fire is dead for real).
  {
    std::vector<char> place_reached(static_cast<std::size_t>(num_places), 0);
    for (const PlaceId p : marking)
      place_reached[static_cast<std::size_t>(p)] = 1;
    std::vector<char> fired(static_cast<std::size_t>(num_trans), 0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (TransId t = 0; t < num_trans; ++t) {
        if (fired[static_cast<std::size_t>(t)]) continue;
        const auto& pre = stg.pre_places(t);
        const bool enabled = std::all_of(
            pre.begin(), pre.end(), [&](PlaceId p) {
              return place_reached[static_cast<std::size_t>(p)] != 0;
            });
        if (!enabled) continue;
        fired[static_cast<std::size_t>(t)] = 1;
        changed = true;
        for (const PlaceId p : stg.post_places(t))
          place_reached[static_cast<std::size_t>(p)] = 1;
      }
    }
    for (TransId t = 0; t < num_trans; ++t)
      if (!fired[static_cast<std::size_t>(t)])
        report.add(LintRule::kUnreachable, LintSeverity::kError,
                   stg.transition_string(t),
                   "transition " + stg.transition_string(t) +
                       " can never fire from the initial marking");
  }

  // --- idle inputs / unconstrained outputs -------------------------------
  for (int s = 0; s < num_signals; ++s) {
    const auto si = static_cast<std::size_t>(s);
    const bool has_edges = rising[si] + falling[si] > 0;
    const Signal& sig = stg.signal(s);
    if (sig.kind == SignalKind::kInput) {
      if (!has_edges)
        report.add(LintRule::kIdleInput, LintSeverity::kWarning, sig.name,
                   "input signal '" + sig.name + "' has no transitions");
      continue;
    }
    if (!has_edges) {
      report.add(LintRule::kUnconstrainedOutput, LintSeverity::kWarning,
                 sig.name,
                 std::string(signal_role(sig.kind)) + " signal '" + sig.name +
                     "' has no transitions: it is never produced");
      continue;
    }
    // Constrained = some transition of this signal is triggered (through a
    // place) by a transition of a *different* signal.
    bool constrained = false;
    for (TransId t = 0; t < num_trans && !constrained; ++t) {
      if (stg.transition(t).signal != s) continue;
      for (const PlaceId p : stg.pre_places(t)) {
        for (const TransId producer : stg.place(p).pre)
          if (stg.transition(producer).signal != s) {
            constrained = true;
            break;
          }
        if (constrained) break;
      }
    }
    if (!constrained)
      report.add(LintRule::kUnconstrainedOutput, LintSeverity::kWarning,
                 sig.name,
                 std::string(signal_role(sig.kind)) + " signal '" + sig.name +
                     "' is never constrained by another signal's transitions");
  }

  return report;
}

LintReport lint_state_graph(const StateGraph& sg) {
  LintReport report;
  std::vector<char> used(static_cast<std::size_t>(sg.num_signals()), 0);
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    if (sg.succs(s).empty())
      report.add(LintRule::kDanglingArc, LintSeverity::kWarning,
                 "s" + std::to_string(s),
                 "state s" + std::to_string(s) +
                     " has no successors: the graph deadlocks there");
    for (const auto& e : sg.succs(s))
      used[static_cast<std::size_t>(e.event.signal)] = 1;
  }
  for (int s = 0; s < sg.num_signals(); ++s) {
    if (used[static_cast<std::size_t>(s)]) continue;
    const Signal& sig = sg.signal(s);
    if (sig.kind == SignalKind::kInput)
      report.add(LintRule::kIdleInput, LintSeverity::kWarning, sig.name,
                 "input signal '" + sig.name + "' labels no arc");
    else
      report.add(LintRule::kUnconstrainedOutput, LintSeverity::kWarning,
                 sig.name,
                 std::string(signal_role(sig.kind)) + " signal '" + sig.name +
                     "' labels no arc: it is never produced");
  }
  return report;
}

LintReport lint_spec(const Spec& spec) {
  if (spec.stg) return lint_stg(*spec.stg);
  if (spec.sg) return lint_state_graph(*spec.sg);
  return {};
}

}  // namespace sitm
