#include "core/insertion.hpp"

#include <algorithm>
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

/// Why growing `er` inside `block` fails (empty if it does not), named as
/// the original sweep names it: a pass of step 2 to its fixpoint, a sweep of step 4 over the
/// region (the last escaping input event wins), then one scan of step 3
/// over every diamond (the first escaping diamond wins).  The corner-indexed
/// closure reaches the same verdict in another order, so only the message
/// needs this sweep; it runs only when a caller asks for the reason.
std::string growth_failure(const StateGraph& sg, const DynBitset& block,
                           const std::vector<Diamond>& diamonds,
                           DynBitset er) {
  std::string why;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<StateId> work;
    er.for_each([&](std::size_t s) { work.push_back(static_cast<StateId>(s)); });
    while (!work.empty()) {
      const StateId v = work.back();
      work.pop_back();
      for (const auto& p : sg.preds(v)) {
        const StateId u = p.target;
        if (block.test(u) && !er.test(u)) {
          er.set(u);
          work.push_back(u);
          changed = true;
        }
      }
    }
    er.for_each([&](std::size_t s) {
      for (const auto& edge : sg.succs(static_cast<StateId>(s))) {
        if (sg.signal(edge.event.signal).kind != SignalKind::kInput) continue;
        if (er.test(edge.target)) continue;
        if (!block.test(edge.target))
          why = strfmt("input event %s would leave the insertion block",
                       sg.event_string(edge.event).c_str());
        else
          changed = true;
        er.set(edge.target);
      }
    });
    if (!er.subset_of(block)) return why;
    for (const auto& d : diamonds) {
      if (er.test(d.left) && er.test(d.right) && !er.test(d.top)) {
        if (!block.test(d.top))
          return strfmt("diamond closure forced out of block at state %s",
                        sg.code_string(d.top).c_str());
        er.set(d.top);
        changed = true;
      }
    }
  }
  return why;
}

std::optional<InsertionPlan> plan_fail(InsertionFailure* failure,
                                       std::string why) {
  if (failure) failure->why = std::move(why);
  return std::nullopt;
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
  if (const std::uint32_t* idx = finish_memo_.find(key_scratch_)) {
    ++finish_hits_;
    return finish_results_[*idx];
  }
  finish_memo_.emplace(key_scratch_,
                       static_cast<std::uint32_t>(finish_results_.size()));
  finish_results_.emplace_back();
  FinishOutcome out;
  auto fail = [&](std::string why) -> const FinishOutcome& {
    out.ok = false;
    out.why = std::move(why);
    finish_results_.back() = std::move(out);
    return finish_results_.back();
  };

  input_borders(sg_, s1, &out.er_rise, &out.er_fall);
  if (out.er_rise.none() && out.er_fall.none())
    return fail("divisor function never changes value");

  // A growth failure is kept without its message (explain_growth).
  const auto& dias = diamonds();
  if (!grow_region(s1, &out.er_rise) || !grow_region(~s1, &out.er_fall))
    return fail({});

  // A state cannot host both a pending rise and a pending fall.
  if (!out.er_rise.disjoint(out.er_fall))
    return fail("ER(x+) and ER(x-) overlap");

  // Cross-region hazard: a diamond with one middle corner inside ER(x+)
  // whose top lands in ER(x-) means a concurrent event makes f fall while
  // x+ is still pending — the pending transition would have to be
  // cancelled, which Muller semantics forbids.  (Symmetrically for x-.)
  // Only diamonds with a middle corner in a region can offend, so walk the
  // regions' corner lists; the failure names the first offender in diamond
  // order, with the x+ test first, as a scan of every diamond would.
  std::size_t first = dias.size();
  auto offenders = [&](const DynBitset& er, const DynBitset& other) {
    er.for_each([&](std::size_t s) {
      for (const std::uint32_t i : corner_diamonds(static_cast<StateId>(s)))
        if (i < first && other.test(dias[i].top)) first = i;
    });
  };
  offenders(out.er_rise, out.er_fall);
  offenders(out.er_fall, out.er_rise);
  if (first < dias.size()) {
    const Diamond& dia = dias[first];
    const bool mid_rise =
        out.er_rise.test(dia.left) || out.er_rise.test(dia.right);
    if (mid_rise && out.er_fall.test(dia.top))
      return fail("concurrent event cancels pending x+ (diamond into ER(x-))");
    return fail("concurrent event cancels pending x- (diamond into ER(x+))");
  }

  const StateId init = sg_.initial();
  out.initial_value = s1.test(init) && !out.er_rise.test(init);
  if (out.er_fall.test(init)) out.initial_value = true;
  out.ok = true;
  finish_results_.back() = std::move(out);
  return finish_results_.back();
}

std::string InsertionPlanner::explain_growth(const DynBitset& s1) {
  DynBitset rise, fall;
  input_borders(sg_, s1, &rise, &fall);
  const std::string why = growth_failure(sg_, s1, diamonds(), std::move(rise));
  if (!why.empty()) return "ER(x+): " + why;
  return "ER(x-): " + growth_failure(sg_, ~s1, diamonds(), std::move(fall));
}

std::optional<InsertionPlan> InsertionPlanner::finish(
    InsertionPlan plan, InsertionFailure* failure) {
  const FinishOutcome& out = finish_outcome(plan.s1);
  if (!out.ok) {
    if (!failure) return std::nullopt;
    return plan_fail(failure,
                     out.why.empty() ? explain_growth(plan.s1) : out.why);
  }
  plan.er_rise = out.er_rise;
  plan.er_fall = out.er_fall;
  plan.initial_value = out.initial_value;
  return plan;
}

std::optional<InsertionPlan> InsertionPlanner::plan(const Cover& f,
                                                    InsertionFailure* failure) {
  InsertionPlan plan;
  plan.f = f;
  plan.f_reset = Cover(f.num_vars());
  plan.s1 = sg_.empty_set();
  for (StateId s = 0; s < static_cast<StateId>(sg_.num_states()); ++s)
    if (f.eval(sg_.code(s))) plan.s1.set(s);
  return finish(std::move(plan), failure);
}

std::optional<InsertionPlan> InsertionPlanner::plan_latch(
    const Cover& f_set, const Cover& f_reset, InsertionFailure* failure) {
  InsertionPlan plan;
  plan.f = f_set;
  plan.f_reset = f_reset;
  plan.latch = true;
  plan.s1 = sg_.empty_set();

  // Propagate SR-latch semantics over the reachable graph: value 1 where
  // f_set holds, 0 where f_reset holds, inherited from predecessors
  // elsewhere.  Any conflict means the latch value is not well-defined.
  const auto n = static_cast<StateId>(sg_.num_states());
  std::vector<signed char> value(static_cast<std::size_t>(n), -1);
  const StateId init = sg_.initial();
  // A state's forced value is evaluated on its first visit and kept: the
  // walk reads it once per incoming arc.
  std::vector<signed char> forced_value(static_cast<std::size_t>(n), -3);
  auto forced = [&](StateId s) -> int {
    signed char& fv = forced_value[static_cast<std::size_t>(s)];
    if (fv == -3) {
      const StateCode code = sg_.code(s);
      const bool set = f_set.eval(code);
      const bool reset = f_reset.eval(code);
      fv = set && reset ? -2 : set ? 1 : reset ? 0 : -1;  // -2: conflict
    }
    return fv;
  };
  {
    const int fv = forced(init);
    if (fv == -2)
      return plan_fail(failure, "latch set and reset overlap in initial state");
    if (fv == -1)
      return plan_fail(failure, "latch value undefined in initial state");
    value[static_cast<std::size_t>(init)] = static_cast<signed char>(fv);
  }
  std::vector<StateId> queue{init};
  while (!queue.empty()) {
    const StateId u = queue.back();
    queue.pop_back();
    for (const auto& edge : sg_.succs(u)) {
      const StateId v = edge.target;
      int fv = forced(v);
      if (fv == -2) return plan_fail(failure, "latch set and reset overlap");
      if (fv == -1) fv = value[static_cast<std::size_t>(u)];
      if (value[static_cast<std::size_t>(v)] == -1) {
        value[static_cast<std::size_t>(v)] = static_cast<signed char>(fv);
        queue.push_back(v);
      } else if (value[static_cast<std::size_t>(v)] != fv) {
        return plan_fail(failure, "latch value ambiguous (path-dependent)");
      }
    }
  }
  for (StateId s = 0; s < n; ++s)
    if (value[static_cast<std::size_t>(s)] == 1) plan.s1.set(s);
  return finish(std::move(plan), failure);
}

const InsertionPlanner::PropagateOutcome&
InsertionPlanner::propagate_outcome(const DynBitset& set_states,
                                    const DynBitset& reset_states) {
  key_scratch_.assign(set_states.words().begin(), set_states.words().end());
  key_scratch_.insert(key_scratch_.end(), reset_states.words().begin(),
                      reset_states.words().end());
  if (const std::uint32_t* idx = region_memo_.find(key_scratch_)) {
    ++region_hits_;
    return propagate_results_[*idx];
  }
  region_memo_.emplace(key_scratch_,
                       static_cast<std::uint32_t>(propagate_results_.size()));
  propagate_results_.emplace_back();
  PropagateOutcome out;

  const auto n = static_cast<StateId>(sg_.num_states());
  const StateId init = sg_.initial();
  auto forced = [&](StateId s) -> int {
    if (set_states.test(static_cast<std::size_t>(s))) return 1;
    if (reset_states.test(static_cast<std::size_t>(s))) return 0;
    return -1;
  };

  // Propagate forward from one assumed initial value; returns the value
  // assignment or nullopt on a contradiction with the forced states.
  auto propagate = [&](signed char init_value)
      -> std::optional<std::vector<signed char>> {
    std::vector<signed char> value(static_cast<std::size_t>(n), -1);
    value[static_cast<std::size_t>(init)] = init_value;
    std::vector<StateId> queue{init};
    while (!queue.empty()) {
      const StateId u = queue.back();
      queue.pop_back();
      for (const auto& edge : sg_.succs(u)) {
        const StateId v = edge.target;
        int fv = forced(v);
        if (fv == -1) fv = value[static_cast<std::size_t>(u)];
        if (value[static_cast<std::size_t>(v)] == -1) {
          value[static_cast<std::size_t>(v)] = static_cast<signed char>(fv);
          queue.push_back(v);
        } else if (value[static_cast<std::size_t>(v)] != fv) {
          return std::nullopt;
        }
      }
    }
    return value;
  };

  // The initial value may be undetermined by the seeds; propagation from a
  // provisional value then either fixes it (the cycle structure is
  // consistent with that choice) or contradicts a forced state.  Try 0
  // first — matching the historical choice — and retry with 1 before
  // rejecting: a cycle structure that forces the initial value to 1 is a
  // perfectly valid insertion, not an ambiguity.
  std::optional<std::vector<signed char>> value;
  const int fv = forced(init);
  if (fv != -1) {
    value = propagate(static_cast<signed char>(fv));
  } else {
    value = propagate(0);
    if (!value) value = propagate(1);
  }
  if (!value) {
    out.ok = false;
    out.why = "latch value ambiguous (path-dependent)";
    propagate_results_.back() = std::move(out);
    return propagate_results_.back();
  }

  out.ok = true;
  out.s1 = sg_.empty_set();
  for (StateId s = 0; s < n; ++s)
    if ((*value)[static_cast<std::size_t>(s)] == 1)
      out.s1.set(static_cast<std::size_t>(s));
  propagate_results_.back() = std::move(out);
  return propagate_results_.back();
}

std::optional<InsertionPlan> InsertionPlanner::plan_state_latch(
    const DynBitset& set_states, const DynBitset& reset_states,
    InsertionFailure* failure) {
  if (!set_states.disjoint(reset_states))
    return plan_fail(failure, "latch set and reset state sets overlap");

  const PropagateOutcome& prop = propagate_outcome(set_states, reset_states);
  if (!prop.ok) return plan_fail(failure, prop.why);

  InsertionPlan plan;
  plan.f = Cover(sg_.num_signals());
  plan.f_reset = Cover(sg_.num_signals());
  plan.latch = true;
  plan.s1 = prop.s1;
  return finish(std::move(plan), failure);
}

StateGraph insert_signal(const StateGraph& sg, const InsertionPlan& plan,
                         const std::string& name, InsertionCopies* copies) {
  StateGraphBuilder out;
  for (const auto& sig : sg.signals()) out.add_signal(sig.name, sig.kind);
  const int x = out.add_signal(name, SignalKind::kInternal);

  // State copies: pre/post for states in the insertion regions, a single
  // copy elsewhere.  pre_id/post_id hold new state ids per old state; for
  // unsplit states both ids coincide.
  const auto n = static_cast<StateId>(sg.num_states());
  std::vector<StateId> id_x0(n, kNoState), id_x1(n, kNoState);
  // An ER state has two copies and one x arc; an arc at most two copies.
  const std::size_t split = plan.er_rise.count() + plan.er_fall.count();
  out.reserve(sg.num_states() + split, 2 * sg.num_arcs() + split);

  auto x_bit = [&](bool v) { return v ? (StateCode{1} << x) : StateCode{0}; };

  for (StateId s = 0; s < n; ++s) {
    const StateCode base = sg.code(s);
    if (plan.er_rise.test(s) || plan.er_fall.test(s)) {
      id_x0[s] = out.add_state(base | x_bit(false));
      id_x1[s] = out.add_state(base | x_bit(true));
    } else if (plan.s1.test(s)) {
      id_x1[s] = out.add_state(base | x_bit(true));
    } else {
      id_x0[s] = out.add_state(base | x_bit(false));
    }
  }

  // Transitions of the new signal.
  plan.er_rise.for_each([&](std::size_t s) {
    out.add_arc(id_x0[s], Event{x, true}, id_x1[s]);
  });
  plan.er_fall.for_each([&](std::size_t s) {
    out.add_arc(id_x1[s], Event{x, false}, id_x0[s]);
  });

  // Original arcs: connect x-consistent copies.  Crossings between the two
  // excitation regions must not skip the pending x transitions: on a
  // ER(x+) -> ER(x-) arc only the (post,pre) = (x=1,x=1) copy survives, and
  // symmetrically for ER(x-) -> ER(x+).
  for (StateId u = 0; u < n; ++u) {
    for (const auto& edge : sg.succs(u)) {
      const StateId v = edge.target;
      const bool skip_00 = plan.er_rise.test(u) && plan.er_fall.test(v);
      const bool skip_11 = plan.er_fall.test(u) && plan.er_rise.test(v);
      if (id_x0[u] != kNoState && id_x0[v] != kNoState && !skip_00)
        out.add_arc(id_x0[u], edge.event, id_x0[v]);
      if (id_x1[u] != kNoState && id_x1[v] != kNoState && !skip_11)
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
    : sg_(sg), plan_(plan), reached_(2 * sg.num_states()) {
  // Reachability over the implicit copy product, mirroring insert_signal's
  // arc construction: original arcs stay on their x side when they carry,
  // and the pending x transition moves between the sides of an ER state.
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
    if (!v && plan.er_rise.test(static_cast<std::size_t>(s))) visit(s, true);
    if (v && plan.er_fall.test(static_cast<std::size_t>(s))) visit(s, false);
    for (const auto& edge : sg.succs(s))
      if (arc_carries(s, edge.target, v)) visit(edge.target, v);
  }
  num_states_ = reached_.count();
}

bool InsertionPreview::copy_exists(StateId s, bool value) const {
  const auto i = static_cast<std::size_t>(s);
  if (plan_.er_rise.test(i) || plan_.er_fall.test(i)) return true;
  return plan_.s1.test(i) == value;
}

bool InsertionPreview::arc_carries(StateId from, StateId to, bool value) const {
  if (!copy_exists(to, value)) return false;
  // ER(x+) -> ER(x-) arcs must not skip the pending x+ on the x=0 side, and
  // symmetrically for the x=1 side (insert_signal's skip_00 / skip_11).
  const auto u = static_cast<std::size_t>(from);
  const auto v = static_cast<std::size_t>(to);
  if (!value) return !(plan_.er_rise.test(u) && plan_.er_fall.test(v));
  return !(plan_.er_fall.test(u) && plan_.er_rise.test(v));
}

std::array<std::uint64_t, 2> InsertionPreview::enabled_mask(StateId s,
                                                            bool value) const {
  std::array<std::uint64_t, 2> mask = sg_.enabled_mask(s);
  const auto i = static_cast<std::size_t>(s);
  const bool in_rise = plan_.er_rise.test(i);
  const bool in_fall = plan_.er_fall.test(i);
  if (in_rise || in_fall) {
    // Only excitation-region copies differ from their source state: they may
    // drop arcs (partner copy missing on this side, or a cross-region skip)
    // and they carry the pending x event.  Interior copies keep their full
    // bitmap — every arc crossing the S0/S1 boundary lands inside an ER (the
    // input borders seed the regions), so all their arcs carry.
    for (const auto& edge : sg_.succs(s)) {
      if (arc_carries(s, edge.target, value)) continue;
      const int id = 2 * edge.event.signal + (edge.event.rising ? 1 : 0);
      mask[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
    }
    if ((!value && in_rise) || (value && in_fall)) {
      const int id = 2 * sg_.num_signals() + (value ? 0 : 1);
      mask[id >> 6] |= std::uint64_t{1} << (id & 63);
    }
  }
  return mask;
}

DynBitset disturbed_signals(const StateGraph& sg, const InsertionPlan& plan) {
  DynBitset out(static_cast<std::size_t>(sg.num_signals()));
  const DynBitset er = plan.er_rise | plan.er_fall;
  er.for_each([&](std::size_t s) {
    const bool in_rise = plan.er_rise.test(s);
    const bool in_fall = plan.er_fall.test(s);
    for (const auto& edge : sg.succs(static_cast<StateId>(s))) {
      const auto t = static_cast<std::size_t>(edge.target);
      const bool er_t = plan.er_rise.test(t) || plan.er_fall.test(t);
      const bool carries0 = (er_t || !plan.s1.test(t)) &&
                            !(in_rise && plan.er_fall.test(t));
      const bool carries1 = (er_t || plan.s1.test(t)) &&
                            !(in_fall && plan.er_rise.test(t));
      if (!carries0 || !carries1)
        out.set(static_cast<std::size_t>(edge.event.signal));
    }
  });
  return out;
}

InsertionVerifier::InsertionVerifier(const StateGraph& before)
    : before_(before),
      persistent_(static_cast<std::size_t>(before.num_signals())) {
  for (int sig = 0; sig < before.num_signals(); ++sig)
    persistent_[static_cast<std::size_t>(sig)] =
        check_persistency(before, {sig}) ? 1 : 0;
}

PropertyResult InsertionVerifier::verify(const StateGraph& after,
                                         bool require_csc,
                                         const DynBitset* disturbed) const {
  if (auto r = check_consistency(after); !r) return r;
  if (auto r = check_speed_independence(after); !r) return r;
  if (require_csc) {
    if (auto r = check_csc(after); !r) return r;
  }

  // SIP: every signal whose events were persistent before must stay
  // persistent (inputs included; outputs are covered by the SI check).  A
  // baseline-persistent signal outside the disturbed set cannot fail — its
  // enabledness is untouched on every surviving copy — so the re-check is
  // skipped when the caller supplies the set.
  std::vector<int> sip;
  for (int sig = 0; sig < before_.num_signals(); ++sig) {
    if (!persistent_[static_cast<std::size_t>(sig)]) continue;
    if (disturbed && !disturbed->test(static_cast<std::size_t>(sig))) continue;
    sip.push_back(sig);
  }
  // One pass checks them all; a violation is then named by the first
  // signal, in signal order, that breaks on its own.
  if (check_persistency(after, sip)) return PropertyResult::pass();
  for (const int sig : sip)
    if (auto r = check_persistency(after, {sig}); !r)
      return PropertyResult::fail("SIP violated: " + r.why);
  return PropertyResult::pass();
}

}  // namespace sitm
