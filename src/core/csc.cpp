#include "core/csc.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/insertion.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/flat_map.hpp"

namespace sitm {

namespace {

/// Bitmask of the enabled non-input events of a state, in the
/// StateGraph::enabled_mask event-id layout (2 bits per signal, 128 bits
/// cover the full 64-signal range — an earlier single-word mask aliased
/// signals 32 apart and could silently miss conflicts on wide specs).
using OutputMask = std::array<std::uint64_t, 2>;

/// One pass over all states caching each state's output-event mask; the
/// conflict scan then compares cached words instead of re-walking adjacency
/// lists per state pair.  Each mask is one AND of the per-state enabled
/// bitmap against the graph's non-input event mask.
std::vector<OutputMask> output_event_masks(const StateGraph& sg) {
  const OutputMask ni = sg.noninput_event_mask();
  std::vector<OutputMask> masks(sg.num_states());
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    const auto& m = sg.enabled_mask(s);
    masks[s] = OutputMask{m[0] & ni[0], m[1] & ni[1]};
  }
  return masks;
}

struct ConflictInfo {
  int pairs = 0;
  /// States participating in at least one conflict.
  DynBitset involved;
  /// Cached per-state output-event masks (index = StateId).
  std::vector<OutputMask> masks;
  /// Code classes with >= 2 states, in discovery order.  Only these can host
  /// conflicts — before or after a latch insertion (the inserted bit refines
  /// each class into at most two, and singleton classes stay conflict-free).
  std::vector<std::vector<StateId>> multi_classes;
};

ConflictInfo csc_conflicts(const StateGraph& sg) {
  ConflictInfo info{0, sg.empty_set(), output_event_masks(sg), {}};

  // Group states by binary code.  Groups keep discovery (= state id) order,
  // and the pair count / involved set are order-independent anyway.
  FlatMap<std::uint64_t, std::uint32_t> group_of(sg.num_states());
  std::vector<std::vector<StateId>> groups;
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    auto [slot, inserted] = group_of.emplace(
        sg.code(s), static_cast<std::uint32_t>(groups.size()));
    if (inserted) groups.emplace_back();
    groups[*slot].push_back(s);
  }

  for (auto& states : groups) {
    if (states.size() < 2) continue;
    for (std::size_t i = 0; i < states.size(); ++i) {
      for (std::size_t j = i + 1; j < states.size(); ++j) {
        if (!(info.masks[states[i]] == info.masks[states[j]])) {
          ++info.pairs;
          info.involved.set(static_cast<std::size_t>(states[i]));
          info.involved.set(static_cast<std::size_t>(states[j]));
        }
      }
    }
    info.multi_classes.push_back(std::move(states));
  }
  return info;
}

/// Conflict-pair count of the post-insertion graph, equal to
/// count_csc_conflicts(insert_signal(...)) but read off the lazy preview.
/// A new state's code is its source state's code plus the latch bit, so the
/// only code classes of the inserted graph with >= 2 members are the old
/// multi-state classes refined by latch value: only those classes' surviving
/// copies are visited, and their output masks come from the copy product.
int conflicts_after_preview(
    const InsertionPreview& preview,
    const std::vector<std::vector<StateId>>& multi_classes,
    const OutputMask& ni_next) {
  std::vector<OutputMask> masks;
  int pairs = 0;
  for (const auto& cls : multi_classes) {
    for (const bool side : {false, true}) {
      masks.clear();
      for (StateId s : cls) {
        if (!preview.copy_reachable(s, side)) continue;
        const auto m = preview.enabled_mask(s, side);
        masks.push_back(OutputMask{m[0] & ni_next[0], m[1] & ni_next[1]});
      }
      for (std::size_t i = 0; i < masks.size(); ++i)
        for (std::size_t j = i + 1; j < masks.size(); ++j)
          if (!(masks[i] == masks[j])) ++pairs;
    }
  }
  return pairs;
}

/// Fresh internal signal name for state encoding.
std::string fresh_csc_name(const StateGraph& sg, int counter) {
  while (true) {
    std::string name = "csc" + std::to_string(counter);
    if (sg.find_signal(name) < 0) return name;
    ++counter;
  }
}

}  // namespace

int count_csc_conflicts(const StateGraph& sg) {
  return csc_conflicts(sg).pairs;
}

CscAnalysis analyze_csc(const StateGraph& sg) {
  ConflictInfo info = csc_conflicts(sg);
  CscAnalysis out;
  out.conflict_pairs = info.pairs;
  out.involved_states = std::move(info.involved);
  return out;
}

CscResult resolve_csc(const StateGraph& input, const CscOptions& opts,
                      const RunGuard* guard) {
  CscResult result;
  result.sg = std::make_shared<StateGraph>(input);
  result.sg->prune_unreachable();

  if (auto r = check_consistency(*result.sg); !r)
    throw Error("resolve_csc: inconsistent SG: " + r.why);
  if (auto r = check_speed_independence(*result.sg); !r)
    throw Error("resolve_csc: not speed-independent: " + r.why);

  int name_counter = 0;
  while (true) {
    StateGraph& sg = *result.sg;
    const ConflictInfo conflicts = csc_conflicts(sg);
    if (conflicts.pairs == 0) {
      result.resolved = true;
      return result;
    }
    if (result.signals_inserted >= opts.max_insertions) {
      result.failure = "insertion limit reached";
      return result;
    }
    if (sg.num_signals() >= 64) {
      result.failure = "no room for a state signal: the graph has " +
                       std::to_string(sg.num_signals()) + " signals";
      return result;
    }
    // Exhaustion exactly between iterations: report the remaining conflicts
    // instead of starting a scan whose first poll would throw.
    if (guard) {
      if (const GuardStop s = guard->status(); s != GuardStop::kNone) {
        result.stopped = s;
        result.failure = std::string("CSC search stopped (") +
                         guard_stop_name(s) + "): " +
                         std::to_string(conflicts.pairs) +
                         " conflict pair(s) remain";
        return result;
      }
    }

    // Candidate latches bounded by event pairs: one arc pass collects each
    // event's switching region SR(e) (the states entered by e; empty = the
    // event never occurs), so the candidate loop below never rescans the
    // graph.  The same helper seeds the planner benchmarks and equivalence
    // tests.
    const auto event_id = [](Event e) { return 2 * e.signal + (e.rising ? 1 : 0); };
    const std::vector<DynBitset> region = all_switching_regions(sg);
    std::vector<Event> events;
    for (int sig = 0; sig < sg.num_signals(); ++sig)
      for (bool rising : {true, false})
        if (region[event_id(Event{sig, rising})].any())
          events.push_back(Event{sig, rising});

    // The first max_candidates ordered pairs (e1 != e2), in enumeration
    // order — the same set the previous nested loops examined.
    struct Candidate {
      Event e1, e2;
    };
    std::vector<Candidate> cands;
    cands.reserve(std::min(opts.max_candidates,
                           events.size() * events.size()));
    for (const Event& e1 : events) {
      for (const Event& e2 : events) {
        if (e1 == e2) continue;
        if (cands.size() >= opts.max_candidates) break;
        cands.push_back(Candidate{e1, e2});
      }
      if (cands.size() >= opts.max_candidates) break;
    }

    // Optional pruning: score each pair by how many conflicting state pairs
    // the latch seeds would definitely separate (one state in SR(e1), the
    // partner in SR(e2)) — computable from the cached masks and regions
    // without planning an insertion — and move the best K to the front.  The
    // evaluation loop stops after that prefix once a committable candidate
    // exists, and only falls back to the remainder when none does.
    std::size_t stop_if_best_at = cands.size();
    if (opts.rank_top_k > 0 && cands.size() > opts.rank_top_k) {
      // The conflicting state pairs are candidate-independent; list them
      // once and score every candidate with plain bitset tests.
      std::vector<std::pair<std::size_t, std::size_t>> conflict_pairs;
      for (const auto& cls : conflicts.multi_classes) {
        for (std::size_t i = 0; i < cls.size(); ++i) {
          for (std::size_t j = i + 1; j < cls.size(); ++j) {
            if (conflicts.masks[cls[i]] == conflicts.masks[cls[j]]) continue;
            conflict_pairs.emplace_back(static_cast<std::size_t>(cls[i]),
                                        static_cast<std::size_t>(cls[j]));
          }
        }
      }
      std::vector<long> score(cands.size(), 0);
      for (std::size_t c = 0; c < cands.size(); ++c) {
        const DynBitset& sr1 = region[event_id(cands[c].e1)];
        const DynBitset& sr2 = region[event_id(cands[c].e2)];
        for (const auto& [a, b] : conflict_pairs) {
          if ((sr1.test(a) && sr2.test(b)) || (sr1.test(b) && sr2.test(a)))
            ++score[c];
        }
      }
      std::vector<std::size_t> order(cands.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                       std::size_t b) {
        return score[a] > score[b];
      });
      std::vector<Candidate> ranked;
      ranked.reserve(cands.size());
      for (const std::size_t idx : order) ranked.push_back(cands[idx]);
      cands = std::move(ranked);
      stop_if_best_at = opts.rank_top_k;
    }

    struct Best {
      StateGraph sg;
      CscStep step;
    };
    std::optional<Best> best;
    const std::string name = fresh_csc_name(sg, name_counter);
    // Non-input event mask of any candidate's post-insertion graph: the old
    // signals (indices preserved by insert_signal) plus the new internal
    // latch at signal index num_signals().
    OutputMask ni_next = sg.noninput_event_mask();
    const int new_id = 2 * sg.num_signals();
    ni_next[new_id >> 6] |= std::uint64_t{3} << (new_id & 63);

    // One planner per iteration: every candidate below shares the diamond
    // enumeration, and candidates whose seed regions or propagated latch
    // blocks coincide reuse the grown excitation regions from the memo.
    InsertionPlanner planner(sg);

    // Guard exhaustion mid-scan (also the fault harness's simulated hits):
    // the scan stops, but a committable candidate already scored in this
    // iteration is still committed — the degradation path that turns a
    // budget/deadline trip into a valid-but-suboptimal insertion instead of
    // a failure.
    bool exhausted = false;

    // Score every candidate from its plan's copy structure
    // (InsertionPreview) and defer verification, on the preview too, to the
    // scan's tentative winner.  The committed latch is the earliest
    // candidate minimizing (pairs_after, states) among the filter- and
    // verify-passing ones, subject to two truncations: the scan stops once a
    // passing candidate reaches zero pairs, and at the ranked-prefix
    // boundary once any passing candidate exists.  The scan applies those
    // truncations assuming unverified candidates pass; a tentative winner
    // failing verification is marked rejected and the scan resumes — so only
    // the committed winner materializes a graph.
    struct Scored {
      std::size_t ci;  ///< index into cands
      InsertionPlan plan;
      int pairs;
      std::size_t states;
      bool rejected = false;  ///< failed the deferred verification
    };
    std::vector<Scored> scored;
    std::optional<std::size_t> best_at;  // tentative winner in `scored`
    const auto better = [](const Scored& a, const Scored& b) {
      return a.pairs < b.pairs || (a.pairs == b.pairs && a.states < b.states);
    };
    std::size_t pos = 0;  // next candidate to score
    const auto scan = [&] {
      while (pos < cands.size()) {
        if (pos == stop_if_best_at && best_at) return;
        const std::size_t ci = pos++;
        // set/reset seeds: the switching regions of the bounding events.
        auto plan = planner.plan_state_latch(region[event_id(cands[ci].e1)],
                                             region[event_id(cands[ci].e2)]);
        if (!plan) continue;
        // Useless if it does not split any conflicting code class: some
        // involved state must differ in the latch value from a conflicting
        // partner; cheap necessary test: S1 neither contains nor misses all
        // involved states.
        const DynBitset involved_in = conflicts.involved & plan->s1;
        if (involved_in.none() ||
            involved_in.count() == conflicts.involved.count())
          continue;
        ++result.candidates_scored;
        fault::hit("csc.candidate");
        guard_charge(guard, 1, "csc.candidate");
        const InsertionPreview preview(sg, *plan);
        const int pairs_after =
            conflicts_after_preview(preview, conflicts.multi_classes, ni_next);
        if (pairs_after >= conflicts.pairs) continue;
        scored.push_back(
            Scored{ci, std::move(*plan), pairs_after, preview.num_states()});
        if (!best_at || better(scored.back(), scored[*best_at]))
          best_at = scored.size() - 1;
        if (scored.back().pairs == 0) return;  // best_at is this candidate
      }
    };
    const PreviewVerifier verifier(sg, /*require_csc=*/false);
    while (true) {
      if (!exhausted) {
        try {
          scan();
        } catch (const GuardExhausted& e) {
          exhausted = true;
          result.stopped = e.kind();
        }
      }
      if (!best_at) break;
      Scored& w = scored[*best_at];
      if (verifier.verify(InsertionPreview(sg, w.plan))) {
        ++result.graphs_materialized;
        best = Best{insert_signal(sg, w.plan, name),
                    CscStep{name, cands[w.ci].e1, cands[w.ci].e2,
                            conflicts.pairs, w.pairs}};
        break;
      }
      w.rejected = true;
      // Recompute the tentative winner (earliest minimal key among the
      // surviving scored candidates) and resume the scan: the rejection may
      // re-open a truncated tail.
      best_at.reset();
      for (std::size_t i = 0; i < scored.size(); ++i)
        if (!scored[i].rejected &&
            (!best_at || better(scored[i], scored[*best_at])))
          best_at = i;
    }

    if (!best) {
      result.failure =
          exhausted ? std::string("CSC search stopped (") +
                          guard_stop_name(result.stopped) +
                          ") before any committable candidate was scored"
                    : "no event-bounded latch reduces the CSC conflicts";
      return result;
    }
    result.sg = std::make_shared<StateGraph>(std::move(best->sg));
    result.steps.push_back(best->step);
    ++result.signals_inserted;
    ++name_counter;
    if (exhausted) {
      // Best-so-far committed under exhaustion: stop searching and report
      // the final status of the committed graph.
      result.degraded = true;
      const int remaining = count_csc_conflicts(*result.sg);
      if (remaining == 0) {
        result.resolved = true;
      } else {
        result.failure = std::string("CSC search stopped (") +
                         guard_stop_name(result.stopped) + ") after " +
                         std::to_string(result.signals_inserted) +
                         " insertion(s): " + std::to_string(remaining) +
                         " conflict pair(s) remain";
      }
      return result;
    }
  }
}

}  // namespace sitm
