#include "core/insertion.hpp"

#include <optional>
#include <utility>

#include "util/error.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

/// Input borders of the bipartition {~s1, s1}: the targets of arcs that
/// enter S1 (`rise`) and of arcs that leave it (`fall`).
void input_borders(const StateGraph& sg, const DynBitset& s1, DynBitset* rise,
                   DynBitset* fall) {
  *rise = sg.empty_set();
  *fall = sg.empty_set();
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s) {
    for (const auto& edge : sg.succs(s)) {
      if (!s1.test(s) && s1.test(edge.target)) rise->set(edge.target);
      if (s1.test(s) && !s1.test(edge.target)) fall->set(edge.target);
    }
  }
}

}  // namespace

InsertionPlanner::InsertionPlanner(const StateGraph& sg) : sg_(sg) {}

const std::vector<Diamond>& InsertionPlanner::diamonds() {
  if (diamonds_) return *diamonds_;
  diamonds_ = enumerate_diamonds(sg_);
  // Corner index, by counting sort: each state's diamonds in diamond order.
  corner_begin_.assign(sg_.num_states() + 1, 0);
  for (const Diamond& d : *diamonds_) {
    ++corner_begin_[static_cast<std::size_t>(d.left) + 1];
    ++corner_begin_[static_cast<std::size_t>(d.right) + 1];
  }
  for (std::size_t s = 1; s < corner_begin_.size(); ++s)
    corner_begin_[s] += corner_begin_[s - 1];
  corner_diamonds_.resize(corner_begin_.back());
  std::vector<std::uint32_t> fill(corner_begin_.begin(),
                                  corner_begin_.end() - 1);
  for (std::uint32_t i = 0; i < diamonds_->size(); ++i) {
    const Diamond& d = (*diamonds_)[i];
    corner_diamonds_[fill[static_cast<std::size_t>(d.left)]++] = i;
    corner_diamonds_[fill[static_cast<std::size_t>(d.right)]++] = i;
  }
  return *diamonds_;
}

std::span<const std::uint32_t> InsertionPlanner::corner_diamonds(
    StateId s) const {
  const auto i = static_cast<std::size_t>(s);
  return {corner_diamonds_.data() + corner_begin_[i],
          corner_begin_[i + 1] - corner_begin_[i]};
}

/// Grow one excitation region of the new signal inside `block`, starting
/// from the input border in `er`, to the least fixpoint of steps 2-4 of the
/// paper's procedure.  One worklist closure: each state that joins the
/// region is visited once, for its predecessors (step 2), its input
/// successors (step 4) and the diamonds where it is a middle corner
/// (step 3) — a diamond's top can only be forced when its second middle
/// corner joins.  Every rule only adds states, so any order reaches the
/// same least set, and fails exactly when that set leaves the block.
bool InsertionPlanner::grow_region(const DynBitset& block,
                                   DynBitset* er) const {
  const std::vector<Diamond>& dias = *diamonds_;
  std::vector<StateId> work;
  er->for_each([&](std::size_t s) { work.push_back(static_cast<StateId>(s)); });
  auto add = [&](StateId s) {
    er->set(s);
    work.push_back(s);
  };
  while (!work.empty()) {
    const StateId v = work.back();
    work.pop_back();
    // Step 2 — well-formedness: predecessors of ER states inside the block
    // belong to the ER (no event may lead from block\ER into the ER).
    for (const auto& p : sg_.preds(v))
      if (block.test(p.target) && !er->test(p.target)) add(p.target);
    // Step 4 — interface preservation: an input event enabled in an ER state
    // must not be delayed by the insertion, so its successor joins the ER.
    for (const auto& edge : sg_.succs(v)) {
      if (sg_.signal(edge.event.signal).kind != SignalKind::kInput) continue;
      if (er->test(edge.target)) continue;
      if (!block.test(edge.target)) return false;
      add(edge.target);
    }
    // Step 3 — SIP: close illegal diamond intersections.  If both middle
    // corners of a diamond lie in the ER but the top does not, two
    // concurrent events enter the ER in either order and their join must
    // still carry the pending transition — otherwise the second event is
    // disabled in the pre-copy of the first (a persistency violation).
    for (const std::uint32_t i : corner_diamonds(v)) {
      const Diamond& d = dias[i];
      if (er->test(d.left) && er->test(d.right) && !er->test(d.top)) {
        if (!block.test(d.top)) return false;
        add(d.top);
      }
    }
  }
  return true;
}

/// Finish a plan given its S1 block: compute input borders, grow the
/// excitation regions, and validate the partition.  Everything derived here
/// is a function of S1 alone (the divisor covers only ride along in the
/// plan), so the outcome is memoized per S1 block.
const InsertionPlanner::FinishOutcome& InsertionPlanner::finish_outcome(
    const DynBitset& s1) {
  key_scratch_ = s1.words();
  if (const std::uint32_t* idx = finish_memo_.find(key_scratch_))
    return finish_results_[*idx];
  finish_memo_.emplace(key_scratch_,
                       static_cast<std::uint32_t>(finish_results_.size()));
  // Stays the failed outcome unless every check below passes.
  const FinishOutcome& failed = finish_results_.emplace_back();
  FinishOutcome out;

  // A divisor that never changes value has nothing to insert.
  input_borders(sg_, s1, &out.er_rise, &out.er_fall);
  if (out.er_rise.none() && out.er_fall.none()) return failed;

  const auto& dias = diamonds();
  if (!grow_region(s1, &out.er_rise) || !grow_region(~s1, &out.er_fall))
    return failed;

  // A state cannot host both a pending rise and a pending fall.
  if (!out.er_rise.disjoint(out.er_fall)) return failed;

  // Cross-region hazard: a diamond with one middle corner inside ER(x+)
  // whose top lands in ER(x-) means a concurrent event makes f fall while
  // x+ is still pending — the pending transition would have to be
  // cancelled, which Muller semantics forbids.  (Symmetrically for x-.)
  // Only diamonds with a middle corner in a region can offend, so walk the
  // regions' corner lists.
  auto cancels = [&](const DynBitset& er, const DynBitset& other) {
    for (std::size_t s = er.first(); s != DynBitset::npos; s = er.next(s))
      for (const std::uint32_t i : corner_diamonds(static_cast<StateId>(s)))
        if (other.test(dias[i].top)) return true;
    return false;
  };
  if (cancels(out.er_rise, out.er_fall) || cancels(out.er_fall, out.er_rise))
    return failed;

  const StateId init = sg_.initial();
  out.initial_value = s1.test(init) && !out.er_rise.test(init);
  if (out.er_fall.test(init)) out.initial_value = true;
  out.ok = true;
  finish_results_.back() = std::move(out);
  return finish_results_.back();
}

std::optional<InsertionPlan> InsertionPlanner::finish(InsertionPlan plan) {
  const FinishOutcome& out = finish_outcome(plan.s1);
  if (!out.ok) return std::nullopt;
  plan.er_rise = out.er_rise;
  plan.er_fall = out.er_fall;
  plan.initial_value = out.initial_value;
  return plan;
}

std::optional<InsertionPlan> InsertionPlanner::plan(const Cover& f) {
  InsertionPlan plan;
  plan.f = f;
  plan.f_reset = Cover(f.num_vars());
  plan.s1 = sg_.empty_set();
  for (StateId s = 0; s < static_cast<StateId>(sg_.num_states()); ++s)
    if (f.eval(sg_.code(s))) plan.s1.set(s);
  return finish(std::move(plan));
}

std::optional<InsertionPlan> InsertionPlanner::plan_latch(
    const Cover& f_set, const Cover& f_reset) {
  // The covers must define the latch's initial value: unlike a state latch,
  // a cover latch is not given a provisional one.
  const StateCode init = sg_.code(sg_.initial());
  if (!f_set.eval(init) && !f_reset.eval(init)) return std::nullopt;
  const std::size_t words = bitwords::words_for(sg_.num_states());
  key_scratch_.assign(2 * words, 0);
  mark_states(f_set, key_scratch_.data());
  mark_states(f_reset, key_scratch_.data() + words);
  return plan_latch_block(
      f_set, f_reset,
      propagate_latch(key_scratch_.data(), key_scratch_.data() + words));
}

/// Every state's cover value, a word of states at a time: a cube holds on
/// the states where each of its literals' signal rows (or their
/// complements) is set.  A latch walk reads every state's value, and this
/// costs a few word operations per literal instead of one cover evaluation
/// per state.
void InsertionPlanner::mark_states(const Cover& f, std::uint64_t* out) {
  const std::size_t n = sg_.num_states();
  const std::size_t words = bitwords::words_for(n);
  if (signal_rows_.empty()) {
    signal_rows_.assign(static_cast<std::size_t>(sg_.num_signals()) * words,
                        0);
    for (std::size_t s = 0; s < n; ++s)
      for (StateCode code = sg_.code(static_cast<StateId>(s)); code;
           code &= code - 1)
        signal_rows_[static_cast<std::size_t>(__builtin_ctzll(code)) * words +
                     (s >> 6)] |= std::uint64_t{1} << (s & 63);
  }
  for (const Cube& c : f.cubes()) {
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = w + 1 < words || n % 64 == 0
                            ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << (n % 64)) - 1;
      for (std::uint64_t care = c.care; care && m; care &= care - 1) {
        const int v = __builtin_ctzll(care);
        const std::uint64_t row =
            signal_rows_[static_cast<std::size_t>(v) * words + w];
        m &= (c.val >> v) & 1 ? row : ~row;
      }
      out[w] |= m;
    }
  }
}

std::optional<DynBitset> InsertionPlanner::propagate_latch(
    const std::uint64_t* set, const std::uint64_t* reset) const {
  // Forced latch value per state: 1 where set, 0 where reset, -1 (inherit
  // from the predecessor) elsewhere, -2 where set and reset overlap.
  const auto n = static_cast<StateId>(sg_.num_states());
  const StateId init = sg_.initial();
  auto forced = [&](StateId s) -> int {
    const auto i = static_cast<std::size_t>(s);
    const bool in_set = (set[i >> 6] >> (i & 63)) & 1;
    const bool in_reset = (reset[i >> 6] >> (i & 63)) & 1;
    return in_set ? (in_reset ? -2 : 1) : in_reset ? 0 : -1;
  };

  // Propagate SR-latch semantics forward from one assumed initial value;
  // false on a reached overlap or a contradiction (a path-dependent value).
  std::vector<signed char> value;
  auto propagate = [&](signed char init_value) {
    value.assign(static_cast<std::size_t>(n), -1);
    value[static_cast<std::size_t>(init)] = init_value;
    std::vector<StateId> queue{init};
    while (!queue.empty()) {
      const StateId u = queue.back();
      queue.pop_back();
      for (const auto& edge : sg_.succs(u)) {
        const StateId v = edge.target;
        int fv = forced(v);
        if (fv == -2) return false;
        if (fv == -1) fv = value[static_cast<std::size_t>(u)];
        if (value[static_cast<std::size_t>(v)] == -1) {
          value[static_cast<std::size_t>(v)] = static_cast<signed char>(fv);
          queue.push_back(v);
        } else if (value[static_cast<std::size_t>(v)] != fv) {
          return false;
        }
      }
    }
    return true;
  };

  // The initial value may be undetermined by the seeds; propagation from a
  // provisional value then either fixes it (the cycle structure is
  // consistent with that choice) or contradicts a forced state.  Try 0
  // first — matching the historical choice — and retry with 1 before
  // rejecting: a cycle structure that forces the initial value to 1 is a
  // perfectly valid insertion, not an ambiguity.
  const int fv = forced(init);
  const bool ok = fv == -1 ? propagate(0) || propagate(1)
                           : fv != -2 && propagate(static_cast<signed char>(fv));
  if (!ok) return std::nullopt;
  DynBitset s1 = sg_.empty_set();
  for (StateId s = 0; s < n; ++s)
    if (value[static_cast<std::size_t>(s)] == 1)
      s1.set(static_cast<std::size_t>(s));
  return s1;
}

std::optional<InsertionPlan> InsertionPlanner::plan_state_latch(
    const DynBitset& set_states, const DynBitset& reset_states) {
  if (!set_states.disjoint(reset_states)) return std::nullopt;
  return plan_latch_block(
      Cover(sg_.num_signals()), Cover(sg_.num_signals()),
      propagate_latch(set_states.words().data(), reset_states.words().data()));
}

std::optional<InsertionPlan> InsertionPlanner::plan_latch_block(
    const Cover& f_set, const Cover& f_reset, std::optional<DynBitset> s1) {
  if (!s1) return std::nullopt;
  InsertionPlan plan;
  plan.f = f_set;
  plan.f_reset = f_reset;
  plan.latch = true;
  plan.s1 = std::move(*s1);
  return finish(std::move(plan));
}

StateGraph insert_signal(const StateGraph& sg, const InsertionPlan& plan,
                         const std::string& name, InsertionCopies* copies) {
  StateGraphBuilder out;
  for (const auto& sig : sg.signals()) out.add_signal(sig.name, sig.kind);
  const int x = out.add_signal(name, SignalKind::kInternal);

  // State copies: both x values for states in the insertion regions, the
  // one matching S1 elsewhere (copy_exists).
  const auto n = static_cast<StateId>(sg.num_states());
  std::vector<StateId> id_x0(n, kNoState), id_x1(n, kNoState);
  // An ER state has two copies and one x arc; an arc at most two copies.
  const std::size_t split = plan.er_rise.count() + plan.er_fall.count();
  out.reserve(sg.num_states() + split, 2 * sg.num_arcs() + split);

  for (StateId s = 0; s < n; ++s) {
    const StateCode base = sg.code(s);
    if (copy_exists(plan, s, false)) id_x0[s] = out.add_state(base);
    if (copy_exists(plan, s, true))
      id_x1[s] = out.add_state(base | (StateCode{1} << x));
  }

  // Transitions of the new signal.
  plan.er_rise.for_each([&](std::size_t s) {
    out.add_arc(id_x0[s], Event{x, true}, id_x1[s]);
  });
  plan.er_fall.for_each([&](std::size_t s) {
    out.add_arc(id_x1[s], Event{x, false}, id_x0[s]);
  });

  // Original arcs: connect the copies they carry between (arc_carries).
  for (StateId u = 0; u < n; ++u) {
    for (const auto& edge : sg.succs(u)) {
      const StateId v = edge.target;
      if (id_x0[u] != kNoState && arc_carries(plan, u, v, false))
        out.add_arc(id_x0[u], edge.event, id_x0[v]);
      if (id_x1[u] != kNoState && arc_carries(plan, u, v, true))
        out.add_arc(id_x1[u], edge.event, id_x1[v]);
    }
  }

  const StateId init = sg.initial();
  out.set_initial(plan.initial_value ? id_x1[init] : id_x0[init]);
  StateGraph next = std::move(out).freeze();
  std::vector<StateId> remap;
  next.prune_unreachable(copies ? &remap : nullptr);
  if (copies) {
    auto through = [&](std::vector<StateId> ids) {
      for (auto& id : ids)
        if (id != kNoState) id = remap[id];
      return ids;
    };
    copies->x0 = through(std::move(id_x0));
    copies->x1 = through(std::move(id_x1));
  }
  return next;
}

InsertionPreview::InsertionPreview(const StateGraph& sg,
                                   const InsertionPlan& plan)
    : sg_(sg),
      plan_(plan),
      reached_(2 * sg.num_states()),
      masks_(2 * sg.num_states()) {
  // x's events take bits 2 * num_signals() and up of a copy's mask.
  if (sg.num_signals() >= 64)
    throw Error("InsertionPreview: no room for a signal in a 64-signal graph");
  // Reachability over the implicit copy product, mirroring insert_signal's
  // arc construction: original arcs stay on their x side when they carry,
  // and the pending x transition moves between the sides of an ER state.
  // Each reached copy's enabled events are recorded on the way: its
  // state's, less the arcs that do not carry, plus the pending x event.
  // Only excitation-region copies drop arcs: every arc crossing the S0/S1
  // boundary lands inside an ER (the input borders seed the regions), so
  // an interior copy keeps its full bitmap.
  const int x_rise = 2 * sg.num_signals() + 1;
  std::vector<std::size_t> work;
  const std::size_t start = pair_index(sg.initial(), plan.initial_value);
  reached_.set(start);
  work.push_back(start);
  while (!work.empty()) {
    const std::size_t p = work.back();
    work.pop_back();
    const auto s = static_cast<StateId>(p >> 1);
    const bool v = (p & 1) != 0;
    auto visit = [&](StateId t, bool tv) {
      const std::size_t q = pair_index(t, tv);
      if (!reached_.test(q)) {
        reached_.set(q);
        work.push_back(q);
      }
    };
    std::array<std::uint64_t, 2>& mask = masks_[p];
    mask = sg.enabled_mask(s);
    auto enable = [&](int id) {
      mask[id >> 6] |= std::uint64_t{1} << (id & 63);
    };
    if (!v && plan.er_rise.test(static_cast<std::size_t>(s))) {
      enable(x_rise);
      visit(s, true);
    }
    if (v && plan.er_fall.test(static_cast<std::size_t>(s))) {
      enable(x_rise - 1);
      visit(s, false);
    }
    for (const auto& edge : sg.succs(s)) {
      if (arc_carries(plan, s, edge.target, v)) {
        visit(edge.target, v);
      } else {
        const int id = 2 * edge.event.signal + (edge.event.rising ? 1 : 0);
        mask[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
      }
    }
  }
  num_states_ = reached_.count();
}

PreviewVerifier::PreviewVerifier(const StateGraph& before, bool require_csc)
    : before_(before), require_csc_(require_csc) {
  if (before.num_signals() >= 64)
    throw Error("PreviewVerifier: no room for a signal in a 64-signal graph");
  const auto n = static_cast<StateId>(before.num_states());
  const int x = before.num_signals();
  const std::array<std::uint64_t, 2> noninput = before.noninput_event_mask();
  noninput_ = noninput;
  noninput_[(2 * x) >> 6] |= std::uint64_t{3} << ((2 * x) & 63);

  // Persistency baseline, one pass for every signal: the events some arc of
  // `before` disables.  A signal is persistent when neither of its events
  // is ever disabled.
  std::array<std::uint64_t, 2> disabled{0, 0};
  for (StateId s = 0; s < n; ++s) {
    const auto& enabled = before.enabled_mask(s);
    for (const auto& edge : before.succs(s)) {
      const auto& after = before.enabled_mask(edge.target);
      std::array<std::uint64_t, 2> lost{enabled[0] & ~after[0],
                                        enabled[1] & ~after[1]};
      const int id = 2 * edge.event.signal + (edge.event.rising ? 1 : 0);
      lost[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
      disabled[0] |= lost[0];
      disabled[1] |= lost[1];
    }
  }
  watched_ = noninput_;
  for (int sig = 0; sig < x; ++sig) {
    const std::uint64_t both = std::uint64_t{3} << ((2 * sig) & 63);
    if ((disabled[sig >> 5] & both) == 0) watched_[sig >> 5] |= both;
  }
  if (!require_csc) return;

  // Code classes, and the ones that already conflict.
  FlatMap<StateCode, std::uint32_t> class_id(before.num_states());
  class_of_.resize(static_cast<std::size_t>(n));
  std::vector<StateId> first;  // each class's first state
  std::vector<char> conflicts;
  auto outputs = [&](StateId s) {
    const auto& m = before.enabled_mask(s);
    return std::array<std::uint64_t, 2>{m[0] & noninput[0],
                                        m[1] & noninput[1]};
  };
  for (StateId s = 0; s < n; ++s) {
    const auto [slot, inserted] = class_id.emplace(
        before.code(s), static_cast<std::uint32_t>(first.size()));
    if (inserted) {
      first.push_back(s);
      conflicts.push_back(0);
    } else if (outputs(first[*slot]) != outputs(s)) {
      conflicts[*slot] = 1;
    }
    class_of_[static_cast<std::size_t>(s)] = *slot;
  }
  class_begin_.assign(first.size() + 1, 0);
  for (const std::uint32_t c : class_of_) ++class_begin_[c + 1];
  for (std::size_t c = 1; c < class_begin_.size(); ++c)
    class_begin_[c] += class_begin_[c - 1];
  class_states_.resize(class_of_.size());
  std::vector<std::uint32_t> fill(class_begin_.begin(), class_begin_.end() - 1);
  for (StateId s = 0; s < n; ++s)
    class_states_[fill[class_of_[static_cast<std::size_t>(s)]]++] =
        static_cast<std::uint32_t>(s);
  for (std::uint32_t c = 0; c < conflicts.size(); ++c)
    if (conflicts[c]) conflicting_.push_back(c);
}

/// Does firing any arc of the surviving copy (s, value) leave every other
/// watched event it enables enabled?
bool PreviewVerifier::persistent_at(const InsertionPreview& preview,
                                    StateId s, bool value) const {
  const auto enabled = preview.enabled_mask(s, value);
  const std::array<std::uint64_t, 2> live{watched_[0] & enabled[0],
                                          watched_[1] & enabled[1]};
  if ((live[0] | live[1]) == 0) return true;
  bool ok = true;
  preview.for_each_succ(s, value, [&](Event e, StateId t, bool t_value) {
    if (!ok) return;
    const auto after = preview.enabled_mask(t, t_value);
    std::array<std::uint64_t, 2> lost{live[0] & ~after[0],
                                      live[1] & ~after[1]};
    const int id = 2 * e.signal + (e.rising ? 1 : 0);
    lost[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
    ok = (lost[0] | lost[1]) == 0;
  });
  return ok;
}

/// Do the surviving copies of code class `cls`, on each x side, all enable
/// the same non-input events?
bool PreviewVerifier::class_coded(const InsertionPreview& preview,
                                  std::uint32_t cls) const {
  const std::uint32_t begin = class_begin_[cls], end = class_begin_[cls + 1];
  if (end - begin < 2) return true;
  for (const bool value : {false, true}) {
    std::optional<std::array<std::uint64_t, 2>> first;
    for (std::uint32_t i = begin; i < end; ++i) {
      const auto s = static_cast<StateId>(class_states_[i]);
      if (!preview.copy_reachable(s, value)) continue;
      const auto m = preview.enabled_mask(s, value);
      const std::array<std::uint64_t, 2> out{m[0] & noninput_[0],
                                             m[1] & noninput_[1]};
      if (!first) first = out;
      else if (*first != out) return false;
    }
  }
  return true;
}

PropertyResult PreviewVerifier::verify(const InsertionPreview& preview) const {
  const InsertionPlan& plan = preview.plan();
  const DynBitset er = plan.er_rise | plan.er_fall;

  // Persistency (output and SIP) on the arcs out of region copies, and on
  // the arcs into them from copies outside the regions.
  std::optional<std::size_t> failed;  // the offending state
  er.for_each([&](std::size_t i) {
    const auto s = static_cast<StateId>(i);
    for (const bool value : {false, true}) {
      if (failed || !preview.copy_reachable(s, value)) continue;
      if (!persistent_at(preview, s, value)) failed = i;
      const auto& after = preview.enabled_mask(s, value);
      preview.for_each_pred(s, value, [&](Event e, StateId u, bool u_value) {
        if (failed || er.test(static_cast<std::size_t>(u))) return;
        const auto& enabled = preview.enabled_mask(u, u_value);
        std::array<std::uint64_t, 2> lost{
            watched_[0] & enabled[0] & ~after[0],
            watched_[1] & enabled[1] & ~after[1]};
        const int id = 2 * e.signal + (e.rising ? 1 : 0);
        lost[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
        if ((lost[0] | lost[1]) != 0) failed = static_cast<std::size_t>(u);
      });
    }
  });
  if (failed)
    return PropertyResult::fail(
        strfmt("an event is disabled in a copy of state %s",
               before_.code_string(static_cast<StateId>(*failed)).c_str()));

  if (!require_csc_) return PropertyResult::pass();
  // CSC in the classes of region states and in the already conflicting
  // ones.
  DynBitset seen(class_begin_.size() - 1);
  std::optional<std::uint32_t> conflict;
  auto code_check = [&](std::uint32_t cls) {
    if (conflict || seen.test(cls)) return;
    seen.set(cls);
    if (!class_coded(preview, cls)) conflict = cls;
  };
  er.for_each([&](std::size_t s) { code_check(class_of_[s]); });
  for (const std::uint32_t cls : conflicting_) code_check(cls);
  if (conflict)
    return PropertyResult::fail(strfmt(
        "CSC conflict among copies of code %s",
        before_
            .code_string(static_cast<StateId>(class_states_[class_begin_[*conflict]]))
            .c_str()));
  return PropertyResult::pass();
}

}  // namespace sitm
