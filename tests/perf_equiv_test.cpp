// Equivalence tests for the hot paths: the flat-hash reachability store, the
// word-mask token game, the cached CSC conflict detection, the lazy CSC
// engine, the shared insertion planner and the heap/bit-sliced minimizer
// must produce results identical to straightforward reference
// implementations.  The references (the containers, rescans and eager loops
// the hot paths replaced) live here as test-local oracles, not in libsitm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "benchlib/suite.hpp"
#include "boolf/bitslice.hpp"
#include "boolf/minimize.hpp"
#include "core/csc.hpp"
#include "core/insertion.hpp"
#include "core/mc_cover.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sg/state_graph.hpp"
#include "stg/stg.hpp"
#include "support/insertion_verifier.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sitm {
namespace {

// ----- reference reachability: std::map store, per-place token game --------

using RefMarking = std::vector<std::uint64_t>;

bool ref_marked(const RefMarking& m, PlaceId p) {
  return (m[static_cast<std::size_t>(p) >> 6] >> (p & 63)) & 1u;
}
void ref_set_token(RefMarking& m, PlaceId p, bool v) {
  const std::uint64_t bit = std::uint64_t{1} << (p & 63);
  if (v)
    m[static_cast<std::size_t>(p) >> 6] |= bit;
  else
    m[static_cast<std::size_t>(p) >> 6] &= ~bit;
}

/// The pre-optimization reachability algorithm, verbatim in structure:
/// ordered-map state store, per-place enabledness and firing loops.
StateGraph reference_state_graph(const Stg& stg) {
  RefMarking init((stg.num_places() + 63) / 64, 0);
  for (PlaceId p : stg.initial_marking()) ref_set_token(init, p, true);

  struct Node {
    RefMarking marking;
    StateCode mask;
  };
  std::map<RefMarking, StateId> ids;
  std::vector<Node> nodes;
  struct PendingArc {
    StateId from, to;
    Event event;
  };
  std::vector<PendingArc> arcs;
  std::vector<int> initial_value(stg.num_signals(), -1);

  nodes.push_back(Node{init, 0});
  ids.emplace(init, 0);
  std::vector<StateId> queue{0};

  while (!queue.empty()) {
    const StateId sid = queue.back();
    queue.pop_back();
    const Node node = nodes[sid];

    for (TransId t = 0; t < static_cast<TransId>(stg.num_transitions()); ++t) {
      bool enabled = true;
      for (PlaceId p : stg.pre_places(t))
        if (!ref_marked(node.marking, p)) {
          enabled = false;
          break;
        }
      if (!enabled || stg.pre_places(t).empty()) continue;

      const auto& tr = stg.transition(t);
      const int rel = static_cast<int>((node.mask >> tr.signal) & 1);
      const int required_initial = tr.rising ? rel : 1 - rel;
      if (initial_value[tr.signal] < 0)
        initial_value[tr.signal] = required_initial;
      EXPECT_EQ(initial_value[tr.signal], required_initial);

      RefMarking next = node.marking;
      for (PlaceId p : stg.pre_places(t)) ref_set_token(next, p, false);
      for (PlaceId p : stg.post_places(t)) {
        EXPECT_FALSE(ref_marked(next, p)) << "net not 1-safe";
        ref_set_token(next, p, true);
      }
      const StateCode next_mask = node.mask ^ (StateCode{1} << tr.signal);

      auto [it, inserted] =
          ids.emplace(next, static_cast<StateId>(nodes.size()));
      if (inserted) {
        nodes.push_back(Node{std::move(next), next_mask});
        queue.push_back(it->second);
      }
      arcs.push_back(PendingArc{sid, it->second, tr.event()});
    }
  }

  StateCode init_code = 0;
  for (int i = 0; i < stg.num_signals(); ++i)
    if (initial_value[i] == 1) init_code |= StateCode{1} << i;

  StateGraphBuilder sg;
  for (const auto& sig : stg.signals()) sg.add_signal(sig.name, sig.kind);
  for (const auto& node : nodes) sg.add_state(init_code ^ node.mask);
  for (const auto& arc : arcs) sg.add_arc(arc.from, arc.event, arc.to);
  sg.set_initial(0);
  return std::move(sg).freeze();
}

/// Structural equality including state numbering and arc order.
void expect_sg_identical(const StateGraph& a, const StateGraph& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_EQ(a.initial(), b.initial());
  ASSERT_EQ(a.num_signals(), b.num_signals());
  for (int i = 0; i < a.num_signals(); ++i)
    EXPECT_EQ(a.signal(i).name, b.signal(i).name);
  for (StateId s = 0; s < static_cast<StateId>(a.num_states()); ++s) {
    EXPECT_EQ(a.code(s), b.code(s)) << "state " << s;
    const auto& ea = a.succs(s);
    const auto& eb = b.succs(s);
    ASSERT_EQ(ea.size(), eb.size()) << "state " << s;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].event, eb[i].event) << "state " << s << " edge " << i;
      EXPECT_EQ(ea[i].target, eb[i].target) << "state " << s << " edge " << i;
    }
  }
}

// ----- reference CSC conflict count: per-pair mask recomputation -----------

std::uint64_t ref_output_mask(const StateGraph& sg, StateId s) {
  std::uint64_t mask = 0;
  for (const auto& e : sg.succs(s)) {
    if (is_noninput(sg.signal(e.event.signal).kind))
      mask |= std::uint64_t{1}
              << (2 * (e.event.signal % 32) + (e.event.rising ? 1 : 0));
  }
  return mask;
}

int reference_csc_conflicts(const StateGraph& sg) {
  int pairs = 0;
  std::map<StateCode, std::vector<StateId>> by_code;
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    by_code[sg.code(s)].push_back(s);
  for (const auto& [code, states] : by_code)
    for (std::size_t i = 0; i < states.size(); ++i)
      for (std::size_t j = i + 1; j < states.size(); ++j)
        if (ref_output_mask(sg, states[i]) != ref_output_mask(sg, states[j]))
          ++pairs;
  return pairs;
}

std::vector<Stg> family_instances() {
  std::vector<Stg> out;
  for (int k = 2; k <= 8; ++k) out.push_back(bench::make_parallelizer(k));
  for (int k = 2; k <= 8; k += 2) out.push_back(bench::make_seq_chain(k));
  for (int p = 2; p <= 5; ++p)
    for (int s = 2; s <= 4; ++s) out.push_back(bench::make_combo(p, s));
  for (int n = 2; n <= 8; n += 2) out.push_back(bench::make_pipeline(n));
  for (int k = 2; k <= 5; ++k) out.push_back(bench::make_choice_mixer(k));
  for (int k = 2; k <= 4; ++k) out.push_back(bench::make_shared_out(k));
  out.push_back(bench::make_hazard());
  for (std::uint64_t seed = 1; seed <= 25; ++seed)
    out.push_back(bench::make_random_stg(seed));
  return out;
}

TEST(PerfEquiv, ReachabilityMatchesReferenceOnFamilies) {
  for (const Stg& stg : family_instances()) {
    const StateGraph fast = stg.to_state_graph();
    const StateGraph ref = reference_state_graph(stg);
    expect_sg_identical(fast, ref);
  }
}

TEST(PerfEquiv, ReachabilityMatchesReferenceOnCorpus) {
  for (const auto& entry : bench::table1_suite()) {
    const StateGraph fast = entry.stg.to_state_graph();
    const StateGraph ref = reference_state_graph(entry.stg);
    expect_sg_identical(fast, ref);
  }
}

TEST(PerfEquiv, WideMarkingPathMatchesReference) {
  // Chain long enough to exceed 64 places, forcing the word-vector marking
  // path (every satellite family fits in one word).
  Stg stg;
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  std::vector<TransId> ts;
  for (int j = 0; j < 80; ++j) {
    // a+ b+ a- b- a+ ... : each signal strictly alternates polarity.
    const int sig = (j % 2) ? b : a;
    const bool rising = (j % 4) < 2;
    ts.push_back(stg.add_transition(sig, rising, j / 4 + 1));
  }
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) stg.connect_tt(ts[i], ts[i + 1]);
  stg.mark_initial(stg.connect_tt(ts.back(), ts.front()));
  ASSERT_GT(stg.num_places(), 64u);

  const StateGraph fast = stg.to_state_graph();
  const StateGraph ref = reference_state_graph(stg);
  expect_sg_identical(fast, ref);
}

TEST(PerfEquiv, CscConflictCountMatchesReferenceOnFamilies) {
  for (const Stg& stg : family_instances()) {
    const StateGraph sg = stg.to_state_graph();
    const int ref = reference_csc_conflicts(sg);
    EXPECT_EQ(count_csc_conflicts(sg), ref);
    EXPECT_EQ(static_cast<bool>(check_csc(sg)), ref == 0);
  }
}

TEST(PerfEquiv, CscConflictCountMatchesReferenceOnCorpus) {
  // The Table-1 sweep also pins the CSC verdict: check_csc holds exactly
  // when the reference finds no conflicting pair.
  for (const auto& entry : bench::table1_suite()) {
    const StateGraph sg = entry.stg.to_state_graph();
    const int ref = reference_csc_conflicts(sg);
    EXPECT_EQ(count_csc_conflicts(sg), ref) << entry.name;
    EXPECT_EQ(static_cast<bool>(check_csc(sg)), ref == 0) << entry.name;
  }
}

TEST(PerfEquiv, ConflictedRingMatchesReference) {
  // Guard that the CSC equivalence check exercises real conflicts (the
  // generator families are CSC-clean by construction): the classic
  // CSC-violating ring a+ b+ a- b- c+ d+ c- d-.
  Stg stg;
  const int sigs[] = {stg.add_signal("a", SignalKind::kOutput),
                      stg.add_signal("b", SignalKind::kOutput),
                      stg.add_signal("c", SignalKind::kOutput),
                      stg.add_signal("d", SignalKind::kOutput)};
  std::vector<TransId> ring;
  for (int half = 0; half < 2; ++half)
    for (bool rising : {true, false})
      for (int i = 0; i < 2; ++i)
        ring.push_back(stg.add_transition(sigs[2 * half + i], rising));
  for (std::size_t i = 0; i + 1 < ring.size(); ++i)
    stg.connect_tt(ring[i], ring[i + 1]);
  stg.mark_initial(stg.connect_tt(ring.back(), ring.front()));

  const StateGraph sg = stg.to_state_graph();
  const int fast = count_csc_conflicts(sg);
  EXPECT_GT(fast, 0);
  EXPECT_EQ(fast, reference_csc_conflicts(sg));
  EXPECT_FALSE(check_csc(sg));
}

TEST(PerfEquiv, ConnectTtReusesManuallyWiredImplicitPlace) {
  // The (from, to) index must see implicit one-in/one-out places no matter
  // how they were wired — connect_tt used to find these by scanning.
  Stg stg;
  const int a = stg.add_signal("a", SignalKind::kOutput);
  const TransId up = stg.add_transition(a, true);
  const TransId down = stg.add_transition(a, false);
  const PlaceId p = stg.add_place();
  stg.connect_tp(up, p);
  stg.connect_pt(p, down);
  EXPECT_EQ(stg.connect_tt(up, down), p);
  EXPECT_EQ(stg.num_places(), 1u);
}

TEST(PerfEquiv, WideSignalMasksDoNotAlias) {
  // Regression: the old single-word output-event mask used `signal % 32`,
  // so signals 32 apart aliased onto the same bits and a conflict between
  // them was silently missed.  Two states share a code; one enables s1+,
  // the other s33+ — a real CSC conflict the 128-bit mask must count.
  StateGraphBuilder builder;
  for (int i = 0; i < 34; ++i)
    builder.add_signal("s" + std::to_string(i), SignalKind::kOutput);
  const StateId p = builder.add_state(0);
  const StateId q = builder.add_state(0);
  const StateId p2 = builder.add_state(StateCode{1} << 1);
  const StateId q2 = builder.add_state(StateCode{1} << 33);
  builder.add_arc(p, Event{1, true}, p2);
  builder.add_arc(q, Event{33, true}, q2);
  builder.set_initial(p);
  const StateGraph sg = std::move(builder).freeze();
  EXPECT_EQ(count_csc_conflicts(sg), 1);
}

// ----- reference resolve_csc: eager scoring, full per-candidate rescan -----

struct RefConflicts {
  int pairs = 0;
  DynBitset involved;
  /// The conflicting state pairs themselves (the ranked mode scores them).
  std::vector<std::pair<std::size_t, std::size_t>> pair_list;
};

/// 128-bit output-event masks (2 bits per signal) via ordered-map grouping —
/// the structure the cached implementation replaced.
RefConflicts ref_conflicts128(const StateGraph& sg) {
  auto mask128 = [&](StateId s) {
    std::pair<std::uint64_t, std::uint64_t> m{0, 0};
    for (const auto& e : sg.succs(s)) {
      if (!is_noninput(sg.signal(e.event.signal).kind)) continue;
      const std::uint64_t bit =
          std::uint64_t{1}
          << (2 * (e.event.signal & 31) + (e.event.rising ? 1 : 0));
      (e.event.signal < 32 ? m.first : m.second) |= bit;
    }
    return m;
  };
  RefConflicts out{0, sg.empty_set(), {}};
  std::map<StateCode, std::vector<StateId>> by_code;
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    by_code[sg.code(s)].push_back(s);
  for (const auto& [code, states] : by_code) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      for (std::size_t j = i + 1; j < states.size(); ++j) {
        if (mask128(states[i]) != mask128(states[j])) {
          ++out.pairs;
          out.involved.set(static_cast<std::size_t>(states[i]));
          out.involved.set(static_cast<std::size_t>(states[j]));
          out.pair_list.emplace_back(static_cast<std::size_t>(states[i]),
                                     static_cast<std::size_t>(states[j]));
        }
      }
    }
  }
  return out;
}

/// The eager resolve_csc: every filter-passing candidate is planned by a
/// fresh planner, materialized, verified and recounted over the whole
/// graph, in (optionally ranked) candidate order.  resolve_csc's lazy scan
/// must match it result for result (steps, counts, final graph) and score
/// the same candidates.  Guards are not modelled.
CscResult reference_resolve_csc(const StateGraph& input,
                                const CscOptions& opts = {}) {
  CscResult result;
  result.sg = std::make_shared<StateGraph>(input);
  result.sg->prune_unreachable();

  int name_counter = 0;
  while (true) {
    StateGraph& sg = *result.sg;
    const RefConflicts conflicts = ref_conflicts128(sg);
    if (conflicts.pairs == 0) {
      result.resolved = true;
      return result;
    }
    if (result.signals_inserted >= opts.max_insertions) {
      result.failure = "insertion limit reached";
      return result;
    }

    const auto event_id = [](Event e) {
      return 2 * e.signal + (e.rising ? 1 : 0);
    };
    std::vector<char> occurs(2 * sg.num_signals(), 0);
    std::vector<DynBitset> region(2 * sg.num_signals(), sg.empty_set());
    for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
      for (const auto& edge : sg.succs(s)) {
        occurs[event_id(edge.event)] = 1;
        region[event_id(edge.event)].set(edge.target);
      }
    }
    std::vector<Event> events;
    for (int sig = 0; sig < sg.num_signals(); ++sig)
      for (bool rising : {true, false})
        if (occurs[event_id(Event{sig, rising})])
          events.push_back(Event{sig, rising});

    std::vector<std::pair<Event, Event>> cands;
    for (const Event& e1 : events)
      for (const Event& e2 : events)
        if (e1 != e2 && cands.size() < opts.max_candidates)
          cands.emplace_back(e1, e2);

    // Ranked mode: order by the number of conflicting pairs the seeds split
    // (stable, so ties keep enumeration order), and stop after the top K
    // once some candidate has committed.
    std::size_t stop_at = cands.size();
    if (opts.rank_top_k > 0 && cands.size() > opts.rank_top_k) {
      const auto score = [&](const std::pair<Event, Event>& c) {
        const DynBitset& sr1 = region[event_id(c.first)];
        const DynBitset& sr2 = region[event_id(c.second)];
        long n = 0;
        for (const auto& [x, y] : conflicts.pair_list)
          if ((sr1.test(x) && sr2.test(y)) || (sr1.test(y) && sr2.test(x)))
            ++n;
        return n;
      };
      std::stable_sort(cands.begin(), cands.end(),
                       [&](const auto& a, const auto& b) {
                         return score(a) > score(b);
                       });
      stop_at = opts.rank_top_k;
    }

    struct Best {
      StateGraph sg;
      int pairs = 0;
      CscStep step;
    };
    std::optional<Best> best;
    std::string name;
    for (int c = name_counter;; ++c) {
      name = "csc" + std::to_string(c);
      if (sg.find_signal(name) < 0) break;
    }

    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      if (ci == stop_at && best) break;
      const auto& [e1, e2] = cands[ci];
      auto plan = InsertionPlanner(sg).plan_state_latch(region[event_id(e1)],
                                                        region[event_id(e2)]);
      if (!plan) continue;
      const DynBitset involved_in = conflicts.involved & plan->s1;
      if (involved_in.none() ||
          involved_in.count() == conflicts.involved.count())
        continue;

      ++result.candidates_scored;
      StateGraph next = insert_signal(sg, *plan, name);
      ++result.graphs_materialized;
      if (!InsertionVerifier(sg).verify(next, /*require_csc=*/false,
                                        ~DynBitset(sg.num_signals())))
        continue;
      const int pairs_after = ref_conflicts128(next).pairs;
      if (pairs_after >= conflicts.pairs) continue;

      Best candidate{std::move(next), pairs_after,
                     CscStep{name, e1, e2, conflicts.pairs, pairs_after}};
      if (!best || candidate.pairs < best->pairs ||
          (candidate.pairs == best->pairs &&
           candidate.sg.num_states() < best->sg.num_states())) {
        best = std::move(candidate);
      }
      if (best->pairs == 0) break;
    }

    if (!best) {
      result.failure = "no event-bounded latch reduces the CSC conflicts";
      return result;
    }
    result.sg = std::make_shared<StateGraph>(std::move(best->sg));
    result.steps.push_back(best->step);
    ++result.signals_inserted;
    ++name_counter;
  }
}

void expect_csc_result_identical(const CscResult& a, const CscResult& b) {
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.signals_inserted, b.signals_inserted);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].new_signal, b.steps[i].new_signal) << "step " << i;
    EXPECT_EQ(a.steps[i].set_after, b.steps[i].set_after) << "step " << i;
    EXPECT_EQ(a.steps[i].reset_after, b.steps[i].reset_after) << "step " << i;
    EXPECT_EQ(a.steps[i].conflicts_before, b.steps[i].conflicts_before);
    EXPECT_EQ(a.steps[i].conflicts_after, b.steps[i].conflicts_after);
  }
  expect_sg_identical(*a.sg, *b.sg);
}

TEST(PerfEquiv, ResolveCscMatchesReferenceOnConflictedRings) {
  for (int segments : {2, 3, 4}) {
    const StateGraph sg = bench::make_csc_ring(segments).to_state_graph();
    ASSERT_GT(count_csc_conflicts(sg), 0) << segments;
    expect_csc_result_identical(resolve_csc(sg),
                                reference_resolve_csc(sg));
  }
  // Concurrency-rich conflicts: the diamond ring exercises the shared
  // planner's memoized region growth against the reference's full rescans.
  for (const auto& [segments, width] : {std::pair{2, 2}, {3, 3}}) {
    const StateGraph sg =
        bench::make_csc_diamond_ring(segments, width).to_state_graph();
    ASSERT_GT(count_csc_conflicts(sg), 0) << segments << "," << width;
    expect_csc_result_identical(resolve_csc(sg), reference_resolve_csc(sg));
  }
}

TEST(PerfEquiv, ResolveCscMatchesReferenceOnCleanFamilies) {
  // CSC-clean inputs must come back untouched through both paths.
  for (const Stg& stg :
       {bench::make_parallelizer(4), bench::make_combo(3, 3)}) {
    const StateGraph sg = stg.to_state_graph();
    expect_csc_result_identical(resolve_csc(sg), reference_resolve_csc(sg));
  }
}

TEST(PerfEquiv, RankedResolveCscStillResolves) {
  // The opt-in top-K mode may pick different latches; the result must still
  // be a conflict-free, consistent, speed-independent graph.
  for (int segments : {2, 3, 4}) {
    const StateGraph sg = bench::make_csc_ring(segments).to_state_graph();
    CscOptions opts;
    opts.rank_top_k = 8;
    const CscResult r = resolve_csc(sg, opts);
    ASSERT_TRUE(r.resolved) << r.failure;
    EXPECT_EQ(count_csc_conflicts(*r.sg), 0);
    EXPECT_TRUE(check_consistency(*r.sg));
    EXPECT_TRUE(check_speed_independence(*r.sg));
  }
}

// ----- minimizer references: row-major expansion, rescan-all selection ---

/// The greedy selection irredundant's heap replaced: essential cubes first,
/// then rescan every cube per pick for the biggest marginal coverage (ties:
/// fewer literals, then the lowest index, which the scan keeps).
std::vector<Cube> irredundant_reference(const std::vector<Cube>& cubes,
                                        const std::vector<std::uint64_t>& on) {
  std::vector<std::vector<int>> coverage(cubes.size());
  std::vector<int> cover_count(on.size(), 0);
  std::vector<int> first_cover(on.size(), -1);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    for (std::size_t m = 0; m < on.size(); ++m) {
      if (cubes[i].contains_code(on[m])) {
        coverage[i].push_back(static_cast<int>(m));
        if (cover_count[m]++ == 0) first_cover[m] = static_cast<int>(i);
      }
    }
  }

  std::vector<char> selected(cubes.size(), 0);
  std::vector<char> covered(on.size(), 0);
  std::size_t num_covered = 0;
  auto select = [&](std::size_t i) {
    if (selected[i]) return;
    selected[i] = 1;
    for (int m : coverage[i]) {
      if (!covered[m]) {
        covered[m] = 1;
        ++num_covered;
      }
    }
  };

  for (std::size_t m = 0; m < on.size(); ++m)
    if (cover_count[m] == 1) select(static_cast<std::size_t>(first_cover[m]));

  while (num_covered < on.size()) {
    std::size_t best = cubes.size();
    int best_gain = -1, best_lits = 65;
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      if (selected[i]) continue;
      int gain = 0;
      for (int m : coverage[i])
        if (!covered[m]) ++gain;
      const int lits = cubes[i].num_literals();
      if (gain > best_gain || (gain == best_gain && lits < best_lits)) {
        best_gain = gain;
        best_lits = lits;
        best = i;
      }
    }
    if (best == cubes.size() || best_gain <= 0)
      throw Error("irredundant: on-set not coverable by candidate cubes");
    select(best);
  }

  std::vector<Cube> out;
  for (std::size_t i = 0; i < cubes.size(); ++i)
    if (selected[i]) out.push_back(cubes[i]);
  return out;
}

/// minimize_onoff on the reference paths throughout: row-major expansion
/// against the full off-set (whatever its size) and the rescan-all
/// selection.  Same variable order and refinement passes.
Cover reference_minimize_onoff(const std::vector<std::uint64_t>& on_in,
                               const std::vector<std::uint64_t>& off_in,
                               int num_vars, int passes) {
  const std::uint64_t mask =
      num_vars >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << num_vars) - 1);
  std::set<std::uint64_t> on_set, off_set;
  for (auto c : on_in) on_set.insert(c & mask);
  for (auto c : off_in) off_set.insert(c & mask);
  const std::vector<std::uint64_t> on(on_set.begin(), on_set.end());
  const std::vector<std::uint64_t> off(off_set.begin(), off_set.end());
  if (on.empty()) return Cover::zero(num_vars);
  if (off.empty()) return Cover::one(num_vars);

  std::vector<double> info(static_cast<std::size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) {
    double pon = 0, poff = 0;
    for (auto c : on) pon += static_cast<double>((c >> v) & 1);
    for (auto c : off) poff += static_cast<double>((c >> v) & 1);
    info[v] = std::abs(pon / on.size() - poff / off.size());
  }
  std::vector<int> order(static_cast<std::size_t>(num_vars));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return info[a] < info[b]; });

  std::vector<Cube> primes;
  for (auto code : on) {
    const Cube c = expand_minterm(code, off, num_vars, order);
    if (std::find(primes.begin(), primes.end(), c) == primes.end())
      primes.push_back(c);
  }
  std::vector<Cube> chosen = irredundant_reference(primes, on);
  auto lits = [](const std::vector<Cube>& v) {
    int n = 0;
    for (const auto& c : v) n += c.num_literals();
    return n;
  };
  for (int pass = 1; pass < passes; ++pass) {
    const std::vector<int> reversed(order.rbegin(), order.rend());
    std::vector<Cube> alt = primes;
    for (auto code : on) {
      const Cube c = expand_minterm(code, off, num_vars, reversed);
      if (std::find(alt.begin(), alt.end(), c) == alt.end()) alt.push_back(c);
    }
    std::vector<Cube> alt_chosen = irredundant_reference(alt, on);
    if (lits(alt_chosen) < lits(chosen)) chosen = std::move(alt_chosen);
  }
  Cover out(num_vars, std::move(chosen));
  out.make_minimal_wrt_containment();
  out.sort();
  return out;
}

// ----- bit-sliced minimizer vs retained row-major reference ----------------

TEST(PerfEquiv, BitSlicedExpandMatchesReferenceRandomized) {
  Rng rng(20260728);
  for (const int num_vars : {1, 2, 7, 13, 63, 64}) {
    const std::uint64_t mask =
        num_vars >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << num_vars) - 1);
    const std::uint64_t space =
        num_vars >= 12 ? 4096 : (std::uint64_t{1} << num_vars);
    for (int round = 0; round < 6; ++round) {
      // Clustered draws (a base code with a few flipped bits) so cubes
      // genuinely expand instead of staying near-minterms.
      const std::uint64_t base = rng.next() & mask;
      auto draw = [&] {
        std::uint64_t c = base;
        const int flips =
            1 + static_cast<int>(rng.below(std::max(2, num_vars / 2)));
        for (int f = 0; f < flips; ++f)
          c ^= std::uint64_t{1} << rng.below(static_cast<std::uint64_t>(num_vars));
        return c & mask;
      };
      std::set<std::uint64_t> on_set, off_set;
      const std::size_t n_on = 1 + rng.below(std::min<std::uint64_t>(40, space / 2));
      const std::size_t n_off = 1 + rng.below(std::min<std::uint64_t>(40, space / 2));
      for (int tries = 0; on_set.size() < n_on && tries < 4096; ++tries)
        on_set.insert(draw());
      for (int tries = 0; off_set.size() < n_off && tries < 4096; ++tries) {
        const std::uint64_t c = draw();
        if (!on_set.count(c)) off_set.insert(c);
      }
      if (off_set.empty()) {
        // n_on <= space/2, so a free code always exists.
        for (std::uint64_t c = 0;; ++c) {
          if (!on_set.count(c & mask)) {
            off_set.insert(c & mask);
            break;
          }
        }
      }

      const std::vector<std::uint64_t> on(on_set.begin(), on_set.end());
      const std::vector<std::uint64_t> off(off_set.begin(), off_set.end());

      // Expansion level: the bit-sliced trial sequence must produce the
      // same cube, literal for literal, for every on-minterm and order.
      const BitSlicedOffSet sliced(off, num_vars);
      std::vector<int> order(static_cast<std::size_t>(num_vars));
      std::iota(order.begin(), order.end(), 0);
      std::vector<int> reversed(order.rbegin(), order.rend());
      for (const auto code : on) {
        EXPECT_EQ(expand_on_minterm(code, sliced, order),
                  expand_minterm(code, off, num_vars, order))
            << "vars=" << num_vars << " code=" << code;
        EXPECT_EQ(expand_on_minterm(code, sliced, reversed),
                  expand_minterm(code, off, num_vars, reversed));
      }
      // Degenerate input: expanding an off-minterm keeps the full minterm.
      EXPECT_EQ(expand_minterm(off[0], off, num_vars, order),
                Cube::minterm(off[0], num_vars));

      // Cover level: one and two passes, literal-for-literal against the
      // reference paths.
      for (int passes : {1, 2}) {
        const Cover a = minimize_onoff(on, off, num_vars, {passes});
        const Cover b = reference_minimize_onoff(on, off, num_vars, passes);
        EXPECT_EQ(a.cubes(), b.cubes())
            << "vars=" << num_vars << " passes=" << passes;
        for (const auto code : on) EXPECT_TRUE(a.eval(code));
        for (const auto code : off) EXPECT_FALSE(a.eval(code));
      }
    }
  }
}

// ----- priority-heap irredundant vs the rescan-all reference ---------------

TEST(PerfEquiv, IrredundantHeapMatchesReferenceRandomized) {
  Rng rng(20260729);
  for (const int num_vars : {1, 3, 5, 8, 13, 63, 64}) {
    const std::uint64_t mask =
        num_vars >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << num_vars) - 1);
    for (int round = 0; round < 8; ++round) {
      // Random candidate cubes, then on-minterms sampled from inside them
      // so every minterm is coverable by construction.  Duplicate cubes
      // stay in the pool on purpose: the tie-break (gain, literals, lowest
      // index) must agree even between identical candidates.
      const std::size_t n_cubes = 2 + rng.below(24);
      std::vector<Cube> cubes;
      for (std::size_t i = 0; i < n_cubes; ++i) {
        Cube c = Cube::one();
        const int lits =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(
                std::min(num_vars, 8) + 1)));
        for (int l = 0; l < lits; ++l)
          c = c.with_literal(
              static_cast<int>(rng.below(static_cast<std::uint64_t>(num_vars))),
              rng.below(2) == 0);
        cubes.push_back(c);
      }
      std::set<std::uint64_t> on_set;
      // Past 64 minterms the packed coverage rows span multiple words, so
      // large draws also exercise the tail-mask and per-word popcount
      // paths (small num_vars caps out at its 2^n code space).
      const std::size_t n_on = 1 + rng.below(round % 2 ? 200 : 40);
      for (std::size_t m = 0; m < n_on; ++m) {
        const Cube& c = cubes[rng.below(cubes.size())];
        // A random code inside c: free bits random, cared bits from val.
        on_set.insert(((rng.next() & ~c.care) | c.val) & mask);
      }
      const std::vector<std::uint64_t> on(on_set.begin(), on_set.end());

      const std::vector<Cube> heap_sel = irredundant(cubes, on);
      const std::vector<Cube> ref_sel = irredundant_reference(cubes, on);
      // Identical selection implies identical cover cost; check both
      // anyway so a future tie-break change fails with a useful message.
      EXPECT_EQ(heap_sel, ref_sel) << "vars=" << num_vars;
      auto lits = [](const std::vector<Cube>& v) {
        int n = 0;
        for (const auto& c : v) n += c.num_literals();
        return n;
      };
      EXPECT_EQ(lits(heap_sel), lits(ref_sel));
      const Cover cover(num_vars, heap_sel);
      for (const auto code : on) EXPECT_TRUE(cover.eval(code));
    }
  }
}

TEST(PerfEquiv, IrredundantBothEnginesRejectUncoverableOnSet) {
  // Minterm 0b11 is covered by no candidate: the heap engine and the
  // reference must both throw instead of looping or under-covering.
  const std::vector<Cube> cubes{Cube::literal(0, false),
                                Cube::literal(1, false)};
  const std::vector<std::uint64_t> on{0b00, 0b11};
  EXPECT_THROW(irredundant(cubes, on), Error);
  EXPECT_THROW(irredundant_reference(cubes, on), Error);
}

// ----- one shared InsertionPlanner vs a fresh planner per query ------------

void expect_plan_equal(const std::optional<InsertionPlan>& a,
                       const std::optional<InsertionPlan>& b,
                       const std::string& ctx) {
  ASSERT_EQ(a.has_value(), b.has_value()) << ctx;
  if (!a) return;
  EXPECT_EQ(a->f, b->f) << ctx;
  EXPECT_EQ(a->f_reset, b->f_reset) << ctx;
  EXPECT_EQ(a->latch, b->latch) << ctx;
  EXPECT_EQ(a->s1, b->s1) << ctx;
  EXPECT_EQ(a->er_rise, b->er_rise) << ctx;
  EXPECT_EQ(a->er_fall, b->er_fall) << ctx;
  EXPECT_EQ(a->initial_value, b->initial_value) << ctx;
}

TEST(PerfEquiv, PlannerStateLatchMatchesOneShot) {
  // One shared planner answering every (set, reset) switching-region pair —
  // memo hits included (each query is issued twice) — must return exactly
  // what a fresh planner returns.
  std::vector<StateGraph> graphs;
  for (int segments : {2, 3, 4})
    graphs.push_back(bench::make_csc_ring(segments).to_state_graph());
  graphs.push_back(bench::make_csc_diamond_ring(3, 3).to_state_graph());
  graphs.push_back(bench::make_parallelizer(4).to_state_graph());
  graphs.push_back(bench::make_combo(3, 3).to_state_graph());
  graphs.push_back(bench::make_hazard().to_state_graph());

  for (const StateGraph& sg : graphs) {
    const std::vector<DynBitset> region = all_switching_regions(sg);
    std::vector<std::size_t> occupied;
    for (std::size_t e = 0; e < region.size(); ++e)
      if (region[e].any()) occupied.push_back(e);

    InsertionPlanner planner(sg);
    std::size_t checked = 0;
    for (const std::size_t e1 : occupied) {
      for (const std::size_t e2 : occupied) {
        if (e1 == e2 || checked >= 256) continue;
        ++checked;
        const std::string ctx =
            "events " + std::to_string(e1) + "/" + std::to_string(e2);
        const auto shared = planner.plan_state_latch(region[e1], region[e2]);
        const auto one_shot =
            InsertionPlanner(sg).plan_state_latch(region[e1], region[e2]);
        expect_plan_equal(shared, one_shot, ctx);
        // Asked twice, the shared planner must give the same answer.
        const auto again = planner.plan_state_latch(region[e1], region[e2]);
        expect_plan_equal(again, one_shot, ctx + " (asked twice)");
      }
    }
  }
}

TEST(PerfEquiv, PlannerStateLatchMatchesOneShotOnCorpus) {
  // Same pin over the 32-spec corpus, capped per spec to keep it fast.
  for (const auto& entry : bench::table1_suite()) {
    const StateGraph sg = entry.stg.to_state_graph();
    const std::vector<DynBitset> region = all_switching_regions(sg);
    std::vector<std::size_t> occupied;
    for (std::size_t e = 0; e < region.size(); ++e)
      if (region[e].any()) occupied.push_back(e);

    InsertionPlanner planner(sg);
    std::size_t checked = 0;
    for (const std::size_t e1 : occupied) {
      for (const std::size_t e2 : occupied) {
        if (e1 == e2 || checked >= 64) continue;
        ++checked;
        const auto shared = planner.plan_state_latch(region[e1], region[e2]);
        const auto one_shot =
            InsertionPlanner(sg).plan_state_latch(region[e1], region[e2]);
        expect_plan_equal(shared, one_shot,
                          entry.name + " " + std::to_string(e1) + "/" +
                              std::to_string(e2));
      }
    }
  }
}

TEST(PerfEquiv, PlannerCoverMatchesOneShotRandomized) {
  Rng rng(20260730);
  const StateGraph graphs[] = {
      bench::make_parallelizer(4).to_state_graph(),
      bench::make_combo(3, 3).to_state_graph(),
      bench::make_hazard().to_state_graph(),
  };
  for (const StateGraph& sg : graphs) {
    InsertionPlanner planner(sg);
    for (int round = 0; round < 64; ++round) {
      // Random 1-3 literal cube divisor, plus its complement-literal
      // partner as a latch reset — the same shapes the mapper generates.
      Cube cube = Cube::one();
      Cube partner = Cube::one();
      const int lits = 1 + static_cast<int>(rng.below(3));
      for (int l = 0; l < lits; ++l) {
        const int var =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(
                sg.num_signals())));
        const bool pol = rng.below(2) == 0;
        cube = cube.with_literal(var, pol);
        partner = partner.with_literal(var, !pol);
      }
      const Cover f(sg.num_signals(), {cube});
      const Cover f_reset(sg.num_signals(), {partner});

      const auto comb = planner.plan(f);
      const auto comb_ref = InsertionPlanner(sg).plan(f);
      expect_plan_equal(comb, comb_ref, "combinational");

      const auto latch = planner.plan_latch(f, f_reset);
      const auto latch_ref = InsertionPlanner(sg).plan_latch(f, f_reset);
      expect_plan_equal(latch, latch_ref, "latch");
    }
  }
}

TEST(PerfEquiv, ResolveCscSharedPlannerBitIdentical) {
  // resolve_csc's one shared planner per iteration must match the eager
  // reference, which plans every candidate with a fresh planner, result for
  // result and candidate for candidate (the memo only caches, it never
  // reorders candidates) — in exhaustive and in ranked order.
  std::vector<StateGraph> graphs;
  for (int segments : {2, 3, 4})
    graphs.push_back(bench::make_csc_ring(segments).to_state_graph());
  graphs.push_back(bench::make_csc_diamond_ring(2, 2).to_state_graph());
  graphs.push_back(bench::make_csc_diamond_ring(3, 3).to_state_graph());
  graphs.push_back(bench::make_parallelizer(4).to_state_graph());
  for (const StateGraph& sg : graphs) {
    for (const std::size_t top_k : {0, 8}) {
      CscOptions opts;
      opts.rank_top_k = top_k;
      const CscResult shared = resolve_csc(sg, opts);
      const CscResult fresh = reference_resolve_csc(sg, opts);
      expect_csc_result_identical(shared, fresh);
      EXPECT_EQ(shared.candidates_scored, fresh.candidates_scored);
    }
  }
}

// ----- lazy InsertionPreview / InsertionVerifier vs materialization --------

std::vector<StateGraph> insertion_test_graphs() {
  std::vector<StateGraph> graphs;
  for (int segments : {2, 3, 4})
    graphs.push_back(bench::make_csc_ring(segments).to_state_graph());
  graphs.push_back(bench::make_csc_diamond_ring(2, 2).to_state_graph());
  graphs.push_back(bench::make_csc_diamond_ring(3, 3).to_state_graph());
  graphs.push_back(bench::make_parallelizer(4).to_state_graph());
  graphs.push_back(bench::make_hazard().to_state_graph());
  return graphs;
}

TEST(PerfEquiv, InsertionPreviewMatchesMaterializedGraph) {
  // Every query the lazy scorer asks — surviving state count, per-copy
  // reachability, per-copy enabled-event bitmaps — must equal what the
  // materialized graph and its InsertionCopies answer, for every plan of
  // every switching-region pair.
  for (const StateGraph& sg : insertion_test_graphs()) {
    const std::vector<DynBitset> region = all_switching_regions(sg);
    std::vector<const DynBitset*> occupied;
    for (const auto& r : region)
      if (r.any()) occupied.push_back(&r);

    InsertionPlanner planner(sg);
    std::size_t checked = 0;
    for (const DynBitset* r1 : occupied) {
      for (const DynBitset* r2 : occupied) {
        if (r1 == r2 || checked >= 200) continue;
        const auto plan = planner.plan_state_latch(*r1, *r2);
        if (!plan) continue;
        ++checked;

        const InsertionPreview preview(sg, *plan);
        InsertionCopies copies;
        const StateGraph next = insert_signal(sg, *plan, "zz0", &copies);
        ASSERT_EQ(preview.num_states(), next.num_states());
        for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
          for (const bool side : {false, true}) {
            const StateId id = side ? copies.x1[static_cast<std::size_t>(s)]
                                    : copies.x0[static_cast<std::size_t>(s)];
            ASSERT_EQ(preview.copy_reachable(s, side), id != kNoState)
                << "state " << s << " side " << side;
            if (id == kNoState) continue;
            EXPECT_EQ(preview.enabled_mask(s, side), next.enabled_mask(id))
                << "state " << s << " side " << side;
          }
        }
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(PerfEquiv, InsertionVerifierMatchesFreeVerify) {
  // One verifier reused across candidates — with and without the
  // disturbed-signal restriction — must agree with a fresh verifier per
  // check, verdict for verdict and message for message: a
  // baseline-persistent signal outside the disturbed set can never fail the
  // after-check, so skipping it is unobservable.
  for (const StateGraph& sg : insertion_test_graphs()) {
    const std::vector<DynBitset> region = all_switching_regions(sg);
    std::vector<const DynBitset*> occupied;
    for (const auto& r : region)
      if (r.any()) occupied.push_back(&r);

    InsertionPlanner planner(sg);
    const InsertionVerifier verifier(sg);
    std::size_t checked = 0;
    for (const DynBitset* r1 : occupied) {
      for (const DynBitset* r2 : occupied) {
        if (r1 == r2 || checked >= 60) continue;
        const auto plan = planner.plan_state_latch(*r1, *r2);
        if (!plan) continue;
        ++checked;

        const StateGraph next = insert_signal(sg, *plan, "zz0");
        const DynBitset disturbed = disturbed_signals(sg, *plan);
        const DynBitset every = ~DynBitset(sg.num_signals());
        for (const bool require_csc : {false, true}) {
          const PropertyResult free_r =
              InsertionVerifier(sg).verify(next, require_csc, every);
          const PropertyResult memo_r =
              verifier.verify(next, require_csc, every);
          const PropertyResult dist_r =
              verifier.verify(next, require_csc, disturbed);
          EXPECT_EQ(free_r.ok, memo_r.ok);
          EXPECT_EQ(free_r.why, memo_r.why);
          EXPECT_EQ(free_r.ok, dist_r.ok);
          EXPECT_EQ(free_r.why, dist_r.why);
        }
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(PerfEquiv, PreviewChecksMatchBuiltGraph) {
  // The mapper and resolve_csc judge a candidate on its copy product:
  // PreviewVerifier's verdict, with and without CSC, must equal
  // InsertionVerifier's on the built graph, and ParentBounds::after must
  // equal cover_lower_bounds of the built graph, for every state-latch plan
  // of every switching-region pair, and for the same plan with its regions
  // cut back to the input borders.  The conflicted rings must supply
  // failing CSC verdicts: a latch that leaves some conflict.  (Persistency
  // failures come from the insertion oracle sweep's cut divisor plans.)
  long checked = 0, csc_failed = 0;
  for (const StateGraph& sg : insertion_test_graphs()) {
    ASSERT_TRUE(check_consistency(sg) && check_speed_independence(sg));
    const std::vector<DynBitset> region = all_switching_regions(sg);
    std::vector<const DynBitset*> occupied;
    for (const auto& r : region)
      if (r.any()) occupied.push_back(&r);

    InsertionPlanner planner(sg);
    const InsertionVerifier oracle(sg);
    const PreviewVerifier loose(sg, /*require_csc=*/false);
    const PreviewVerifier strict(sg, /*require_csc=*/true);
    const ParentBounds parent(sg);
    const DynBitset every = ~DynBitset(sg.num_signals());
    for (const DynBitset* r1 : occupied) {
      for (const DynBitset* r2 : occupied) {
        if (r1 == r2) continue;
        const auto planned = planner.plan_state_latch(*r1, *r2);
        if (!planned) continue;
        for (const InsertionPlan& plan : {*planned, input_border_plan(sg, *planned)}) {
          ++checked;
          const InsertionPreview preview(sg, plan);
          const StateGraph next = insert_signal(sg, plan, "zz0");
          const bool loose_ok = oracle.verify(next, false, every).ok;
          const bool strict_ok = oracle.verify(next, true, every).ok;
          EXPECT_EQ(loose.verify(preview).ok, loose_ok) << checked;
          EXPECT_EQ(strict.verify(preview).ok, strict_ok) << checked;
          if (loose_ok && !strict_ok) ++csc_failed;
          const std::vector<CoverBounds> want = cover_lower_bounds(next);
          const std::vector<CoverBounds> got = parent.after(preview);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t a = 0; a < want.size(); ++a) {
            EXPECT_EQ(got[a].set, want[a].set) << checked << " signal " << a;
            EXPECT_EQ(got[a].reset, want[a].reset)
                << checked << " signal " << a;
            EXPECT_EQ(got[a].complete, want[a].complete)
                << checked << " signal " << a;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(csc_failed, 0);
}

TEST(PerfEquiv, ResolveCscLazyMatchesReferenceRandomized) {
  // Randomized option sweeps over the conflicted families: the lazy engine
  // (copy-map scoring, winner-only materialization, deferred verification)
  // must be bit-identical to the eager reference, whose verification is
  // *not* deferred, under every max_candidates truncation and ranked
  // (rank_top_k) prefix.
  Rng rng(20260808);
  for (int round = 0; round < 12; ++round) {
    const StateGraph sg =
        (round % 2 == 0)
            ? bench::make_csc_ring(2 + static_cast<int>(rng.below(4)))
                  .to_state_graph()
            : bench::make_csc_diamond_ring(2 + static_cast<int>(rng.below(2)),
                                           2 + static_cast<int>(rng.below(2)))
                  .to_state_graph();
    ASSERT_GT(count_csc_conflicts(sg), 0);

    CscOptions opts;
    const std::size_t cand_choices[] = {16, 48, 256};
    opts.max_candidates = cand_choices[rng.below(3)];
    const std::size_t topk_choices[] = {0, 0, 4, 8};
    opts.rank_top_k = topk_choices[rng.below(4)];

    const CscResult lazy = resolve_csc(sg, opts);
    const CscResult eager = reference_resolve_csc(sg, opts);
    expect_csc_result_identical(lazy, eager);

    // Work accounting: both score the same filter-passing candidates, but
    // only the lazy engine skips materialization for non-winners.
    EXPECT_EQ(lazy.candidates_scored, eager.candidates_scored);
    EXPECT_EQ(eager.graphs_materialized, eager.candidates_scored);
    EXPECT_LE(lazy.graphs_materialized, eager.graphs_materialized);
    EXPECT_GE(lazy.graphs_materialized, lazy.signals_inserted);
  }
}

}  // namespace
}  // namespace sitm
