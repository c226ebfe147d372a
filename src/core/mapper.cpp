#include "core/mapper.hpp"

#include <algorithm>

#include "core/progress.hpp"
#include "mlogic/division.hpp"
#include "sg/properties.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/scheduler.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

/// How many of the most complex events are tried per iteration before
/// declaring failure.
constexpr int kMaxTargetEvents = 4;

/// Per-signal value sets over the reachable states of one SG revision:
/// values[v] holds the reachable states where v is 1.
std::vector<DynBitset> signal_values(const StateGraph& sg,
                                     const DynBitset& reachable) {
  std::vector<DynBitset> values(static_cast<std::size_t>(sg.num_signals()),
                                sg.empty_set());
  reachable.for_each([&](std::size_t s) {
    const StateCode code = sg.code(static_cast<StateId>(s));
    for (std::size_t v = 0; v < values.size(); ++v)
      if ((code >> v) & 1) values[v].set(s);
  });
  return values;
}

/// Is the planned signal identical (over reachable states) to an existing
/// signal or its complement?  Such an insertion adds a redundant wire.
/// `reachable` and `values` (signal_values) are shared per iteration.
bool duplicates_signal(const DynBitset& reachable,
                       const std::vector<DynBitset>& values,
                       const DynBitset& s1) {
  const auto& r = reachable.words();
  const auto& f = s1.words();
  for (const DynBitset& value : values) {
    const auto& v = value.words();
    bool same = true, inverse = true;
    for (std::size_t w = 0; w < r.size() && (same || inverse); ++w) {
      same = same && (f[w] & r[w]) == v[w];
      inverse = inverse && (~f[w] & r[w]) == v[w];
    }
    if (same || inverse) return true;
  }
  return false;
}

/// The sequential partner of a divisor: the cube of complemented literals
/// (e.g. a*b -> a'*b'; a+b -> a'*b').  A latch set by f and reset by this
/// partner realizes a Muller-C-style sub-element.  Returns an empty cover
/// when f uses some variable in both polarities.
Cover latch_reset_partner(const Cover& f) {
  Cube partner = Cube::one();
  for (const auto& cube : f.cubes()) {
    for (int v = 0; v < f.num_vars(); ++v) {
      if (!cube.has_literal(v)) continue;
      const bool want = !cube.polarity(v);
      if (partner.has_literal(v) && partner.polarity(v) != want)
        return Cover(f.num_vars());
      partner = partner.with_literal(v, want);
    }
  }
  if (partner.is_one()) return Cover(f.num_vars());
  return Cover(f.num_vars(), {partner});
}

MapMetrics metrics_of(const std::vector<SignalSynthesis>& syntheses,
                      const GateLibrary& library) {
  MapMetrics m;
  for (const auto& s : syntheses) m += signal_metrics(s, library);
  return m;
}

/// Order in which a candidate's signals are resynthesized, chosen so that
/// the partial cost reaches the bound early: the signals over the library
/// in the current synthesis (the target last: it is the one the insertion
/// should fix), then the rest by descending current complexity, then the
/// new signal.
std::vector<int> bound_order(const std::vector<SignalSynthesis>& syntheses,
                             const GateLibrary& library, int target,
                             int new_signal) {
  std::vector<const SignalSynthesis*> over, rest;
  for (const auto& s : syntheses) {
    if (s.signal == target) continue;
    (library.fits(s.complexity) ? rest : over).push_back(&s);
  }
  std::stable_sort(rest.begin(), rest.end(),
                   [](const SignalSynthesis* a, const SignalSynthesis* b) {
                     return a->complexity > b->complexity;
                   });
  std::vector<int> order;
  for (const auto* s : over) order.push_back(s->signal);
  order.push_back(target);
  for (const auto* s : rest) order.push_back(s->signal);
  order.push_back(new_signal);
  return order;
}

/// Fresh internal signal name.
std::string fresh_name(const StateGraph& sg, int counter) {
  while (true) {
    std::string name = "x" + std::to_string(counter);
    if (sg.find_signal(name) < 0) return name;
    ++counter;
  }
}

struct Candidate {
  Cover f;
  Cover quotient, remainder;
  InsertionPlan plan;
  ProgressEstimate estimate;
};

}  // namespace

void MapMetrics::add_gate(int complexity, const GateLibrary& library) {
  if (!library.fits(complexity)) ++gates_over_library;
  max_complexity = std::max(max_complexity, complexity);
  total_literals += complexity;
}

MapMetrics& MapMetrics::operator+=(const MapMetrics& o) {
  gates_over_library += o.gates_over_library;
  max_complexity = std::max(max_complexity, o.max_complexity);
  total_literals += o.total_literals;
  return *this;
}

MapMetrics signal_metrics(const SignalSynthesis& s,
                          const GateLibrary& library) {
  MapMetrics m;
  if (s.combinational) {
    m.add_gate(s.complete_complexity, library);
  } else {
    m.add_gate(s.set.complexity, library);
    m.add_gate(s.reset.complexity, library);
  }
  return m;
}

MapMetrics signal_metrics_bound(const CoverBounds& b, Architecture architecture,
                                const GateLibrary& library) {
  MapMetrics gate, latch;
  gate.add_gate(b.complete, library);
  latch.add_gate(b.set, library);
  latch.add_gate(b.reset, library);
  switch (architecture) {
    case Architecture::kComplexGate: return gate;
    case Architecture::kStandardC: return latch;
    case Architecture::kAuto: break;
  }
  MapMetrics m;
  m.gates_over_library =
      std::min(gate.gates_over_library, latch.gates_over_library);
  m.max_complexity = std::min(gate.max_complexity, latch.max_complexity);
  m.total_literals = std::min(gate.total_literals, latch.total_literals);
  return m;
}

Netlist MapResult::build_netlist(const McOptions& opts) const {
  if (!sg) throw Error("MapResult: no state graph");
  if (opts.same_results(mc)) return netlist_of(*sg, syntheses);
  return synthesize_all(*sg, opts);
}

MapResult technology_map(const StateGraph& input, const MapperOptions& opts,
                         const RunGuard* guard,
                         const std::vector<SignalSynthesis>* syntheses) {
  MapResult result;
  result.mc = opts.mc;
  result.sg = std::make_shared<StateGraph>(input);
  const bool pruned = result.sg->prune_unreachable() > 0;

  if (auto r = check_implementability(*result.sg); !r)
    throw Error("technology_map: input SG not implementable: " + r.why);

  // `result.syntheses` always describes `*result.sg`: the caller's when
  // pruning left the input as it was, then each committed winner's.
  if (syntheses && !pruned)
    result.syntheses = *syntheses;
  else
    synthesize_all(*result.sg, opts.mc, &result.syntheses, guard);

  int name_counter = 0;

  while (true) {
    guard_check(guard, "map.iteration");
    fault::hit("map.round");
    StateGraph& sg = *result.sg;

    // Shared per-iteration planning state: one diamond enumeration and one
    // region memo serve every divisor candidate of every target below, and
    // the reachable set and signal values feed the duplicate-signal filter.
    InsertionPlanner planner(sg);
    const DynBitset reachable = sg.reachable();
    const std::vector<DynBitset> values = signal_values(sg, reachable);

    // Collect event covers whose signal implementation exceeds the library.
    struct Target {
      const SignalSynthesis* synth;
      const EventCover* cover;
    };
    std::vector<Target> targets;
    for (const auto& synth : result.syntheses) {
      if (opts.library.fits(synth.complexity)) continue;
      targets.push_back(Target{&synth, &synth.set});
      targets.push_back(Target{&synth, &synth.reset});
    }
    if (targets.empty()) {
      result.implementable = true;
      return result;
    }
    if (result.signals_inserted >= opts.max_insertions) {
      result.failure = "insertion limit reached";
      return result;
    }

    // Most complex covers first (the paper's target selection).
    std::stable_sort(targets.begin(), targets.end(),
                     [](const Target& a, const Target& b) {
                       return a.cover->complexity > b.cover->complexity;
                     });

    bool committed = false;
    const MapMetrics current_metrics =
        metrics_of(result.syntheses, opts.library);
    // Shared per-iteration verification state: the persistency baseline of
    // `sg` is candidate-independent, so every pre-check round below reuses
    // it (the verifier is const and safe to share across the worker pool).
    const InsertionVerifier verifier(sg);

    int tried_targets = 0;
    for (const auto& target : targets) {
      if (tried_targets++ >= kMaxTargetEvents) break;
      // Gates already implementable do not need decomposition.
      if (opts.library.fits(target.cover->complexity)) continue;

      // ---- candidate generation -------------------------------------
      std::vector<Candidate> candidates;
      const EventCover& opposite = target.cover == &target.synth->set
                                       ? target.synth->reset
                                       : target.synth->set;
      const TargetZones zones = target_zones(sg, *target.cover, opposite);
      auto consider = [&](const Cover& f, std::optional<InsertionPlan> plan,
                          const Division& div) {
        if (!plan) return;
        if (duplicates_signal(reachable, values, plan->s1)) return;
        ProgressEstimate est =
            estimate_progress(sg, result.syntheses, zones, *target.cover,
                              div.quotient, div.remainder, *plan);
        if (!opts.global_acknowledgement && est.new_triggers > 0) return;
        ++result.candidates_planned;
        candidates.push_back(
            Candidate{f, div.quotient, div.remainder, std::move(*plan), est});
      };
      for (Cover& f : generate_divisors(target.cover->cover, opts.divisors)) {
        Division div = algebraic_division(target.cover->cover, f);
        if (div.quotient.empty()) continue;  // not an algebraic divisor
        // Combinational divisor: the new signal is a delayed copy of f.
        consider(f, planner.plan(f), div);
        // Sequential divisor: an SR sub-latch set by f and reset by the
        // complement-literal partner cube (C-element decomposition).
        const Cover partner = latch_reset_partner(f);
        if (!partner.empty()) consider(f, planner.plan_latch(f, partner), div);
      }
      // Properties 3.1 / 3.2 rank the candidates (safe substitutions and
      // bounded impact on other covers first); the exact accept/reject
      // decision is the resynthesis below.
      if (opts.use_progress_filters) {
        auto key = [](const Candidate& c) {
          return std::make_tuple(c.estimate.target_ok ? 0 : 1,
                                 c.estimate.others_ok ? 0 : 1,
                                 c.estimate.estimated_delta);
        };
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const Candidate& a, const Candidate& b) {
                           return key(a) < key(b);
                         });
      }

      // ---- full evaluation (bounded resynthesis) -----------------------
      // Every candidate evaluation reads only the shared (const) SG and its
      // own plan, so both steps fan out to a worker pool
      // (MapperOptions::threads): the insert/verify pre-check in rank-order
      // rounds, each round's verified candidates resynthesized before the
      // next round starts.  The evaluated set — the first max_full_evals
      // candidates whose insertion verifies — and the winner — the best
      // (metrics, states) key, earliest candidate on ties — are both
      // determined in candidate order, so the mapped result and the search
      // counters are bit-identical to the serial loop at every thread count.
      // With prune_pre_checks the loop additionally stops at the first
      // round boundary where a committable running best exists: the pruned
      // candidates carry estimates no better than what already won, and
      // never pay for insert_signal/verify_insertion.
      //
      // Resynthesis is bounded: a candidate is synthesized signal by signal
      // in bound_order, and the cost of the signals done so far plus the
      // cover_lower_bounds of the rest is a lexicographic lower bound of
      // its final cost.  It is abandoned, before its first signal if the
      // bounds alone decide it, once that bound is not below
      // `current_metrics` (it can never be committed) or, with its state
      // count, not below the best key of the earlier rounds (it can never
      // replace that best).  Either way the abandoned candidate could not
      // have won, so the winner is the one the unbounded loop picks.  Only
      // earlier rounds feed the bound, which keeps the winner independent of
      // the worker schedule; how much gets abandoned depends on the round
      // width (resyntheses_pruned, signals_resynthesized).
      struct Evaluated {
        StateGraph sg;
        std::vector<SignalSynthesis> syntheses;
        const Candidate* candidate = nullptr;
        MapMetrics metrics;
        std::size_t states = 0;
        bool complete = false;  ///< synthesized to the end, within the bound
      };
      const std::string name = fresh_name(sg, name_counter);
      const std::vector<int> order =
          bound_order(result.syntheses, opts.library, target.synth->signal,
                      sg.num_signals());
      const int eval_threads =
          resolve_worker_threads(opts.threads, candidates.size());
      // Round width.  When pruning, the stop decision happens only on round
      // boundaries, so the width must not depend on the worker count — a
      // fixed 8 keeps the pruned result bit-identical at every thread
      // count.  Without pruning the width is unobservable (the evaluated
      // set is the first `cap` verifying candidates regardless), so one
      // chunk per worker over-checks at most one chunk past the serial
      // stop, exactly like the historical pre-check loop.
      const std::size_t round_width =
          opts.prune_pre_checks
              ? std::size_t{8}
              : static_cast<std::size_t>(std::max(eval_threads, 1));

      std::vector<Evaluated> evaluated;
      std::optional<std::size_t> best_idx;  // committable running best
      auto key = [](const Evaluated& e) {
        return std::make_tuple(e.metrics.tuple(), e.states);
      };
      {
        const std::size_t cap =
            opts.max_full_evals > 0
                ? static_cast<std::size_t>(opts.max_full_evals)
                : 0;
        std::vector<std::optional<StateGraph>> verified;
        std::size_t pos = 0;
        while (pos < candidates.size() && evaluated.size() < cap) {
          if (opts.prune_pre_checks && best_idx) break;
          const std::size_t chunk =
              std::min(candidates.size() - pos, round_width);
          guard_charge(guard, chunk, "map.candidates");
          verified.assign(chunk, std::nullopt);
          parallel_for(chunk, eval_threads, [&](std::size_t k) {
            const InsertionPlan& plan = candidates[pos + k].plan;
            StateGraph next = insert_signal(sg, plan, name);
            const DynBitset disturbed = disturbed_signals(sg, plan);
            if (verifier.verify(next, /*require_csc=*/true, &disturbed))
              verified[k] = std::move(next);
          });
          const std::size_t first_new = evaluated.size();
          for (std::size_t k = 0; k < chunk && evaluated.size() < cap; ++k) {
            if (!verified[k]) continue;
            Evaluated ev;
            ev.sg = std::move(*verified[k]);
            ev.candidate = &candidates[pos + k];
            evaluated.push_back(std::move(ev));
          }
          // The running best of the earlier rounds; this round's workers
          // only write their own new entries, so reading it is race-free.
          const Evaluated* bar = best_idx ? &evaluated[*best_idx] : nullptr;
          parallel_for(
              evaluated.size() - first_new, eval_threads, [&](std::size_t k) {
                Evaluated& ev = evaluated[first_new + k];
                ev.states = ev.sg.num_states();
                // remaining[i]: lower bound of the signals order[i..].
                const std::vector<CoverBounds> bounds =
                    cover_lower_bounds(ev.sg);
                std::vector<MapMetrics> remaining(order.size() + 1);
                for (std::size_t i = order.size(); i-- > 0;) {
                  remaining[i] = signal_metrics_bound(
                      bounds[order[i]], opts.mc.architecture, opts.library);
                  remaining[i] += remaining[i + 1];
                }
                // Progress requirement: the global cost tuple strictly
                // decreases.  This is the termination measure of the whole
                // loop — temporary growth of one cover (the acknowledgement
                // literal of Property 3.2) is fine as long as fewer gates
                // exceed the library.
                auto can_win = [&](MapMetrics bound) {
                  bound += remaining[ev.syntheses.size()];
                  return bound < current_metrics &&
                         (!bar || std::make_tuple(bound.tuple(), ev.states) <
                                      key(*bar));
                };
                ev.complete =
                    can_win(MapMetrics{}) &&
                    synthesize_while(ev.sg, order, opts.mc, guard, bounds,
                                     &ev.syntheses,
                                     [&](const SignalSynthesis& s) {
                                       ev.metrics +=
                                           signal_metrics(s, opts.library);
                                       return can_win(ev.metrics);
                                     });
                // synthesize_all's signal order, for the next iteration.
                if (ev.complete)
                  std::ranges::sort(ev.syntheses, {}, &SignalSynthesis::signal);
              });
          for (std::size_t i = first_new; i < evaluated.size(); ++i) {
            result.signals_resynthesized +=
                static_cast<long>(evaluated[i].syntheses.size());
            for (const auto& s : evaluated[i].syntheses)
              result.minimizations += s.minimizations;
            if (!evaluated[i].complete) {
              ++result.resyntheses_pruned;
              continue;
            }
            if (!best_idx || key(evaluated[i]) < key(evaluated[*best_idx]))
              best_idx = i;
          }
          pos += chunk;
        }
      }
      result.resyntheses += static_cast<long>(evaluated.size());
      Evaluated* best = best_idx ? &evaluated[*best_idx] : nullptr;

      if (best) {
        MapStep step;
        step.new_signal = name;
        step.divisor = best->candidate->plan.f;
        step.divisor_reset = best->candidate->plan.f_reset;
        step.latch = best->candidate->plan.latch;
        step.target_signal = target.synth->signal;
        step.target_event = target.cover->event;
        step.states_before = sg.num_states();
        step.states_after = best->sg.num_states();
        step.before = current_metrics;
        step.after = best->metrics;
        result.steps.push_back(std::move(step));

        result.sg = std::make_shared<StateGraph>(std::move(best->sg));
        result.syntheses = std::move(best->syntheses);
        ++result.signals_inserted;
        ++name_counter;
        committed = true;
        break;
      }
    }

    if (!committed) {
      result.failure = "no divisor makes progress (n.i.)";
      // Leave the best-effort syntheses in the result for inspection.
      return result;
    }
  }
}

}  // namespace sitm
