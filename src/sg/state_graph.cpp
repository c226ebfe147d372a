#include "sg/state_graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/error.hpp"
#include "util/text.hpp"

namespace sitm {

int StateGraphBuilder::add_signal(std::string name, SignalKind kind) {
  if (signals_.size() >= 64) throw Error("StateGraph: more than 64 signals");
  if (find_signal(signals_, name) >= 0)
    throw Error("StateGraph: duplicate signal '" + name + "'");
  signals_.push_back(Signal{std::move(name), kind});
  return static_cast<int>(signals_.size()) - 1;
}

StateId StateGraphBuilder::add_state(StateCode code) {
  codes_.push_back(code);
  return static_cast<StateId>(codes_.size()) - 1;
}

void StateGraphBuilder::add_arc(StateId from, Event ev, StateId to) {
  if (ev.signal < 0 || ev.signal >= num_signals())
    throw Error("StateGraph: arc with unknown signal");
  const auto n = static_cast<StateId>(codes_.size());
  if (from < 0 || from >= n || to < 0 || to >= n)
    throw Error("StateGraph: arc with unknown state");
  arcs_.push_back(Arc{ev, from, to});
}

StateGraph StateGraphBuilder::freeze() && {
  StateGraph sg;
  sg.signals_ = std::move(signals_);
  sg.codes_ = std::move(codes_);
  sg.initial_ = initial_;
  sg.freeze_arcs(arcs_);
  return sg;
}

void StateGraph::freeze_arcs(std::span<const Arc> arcs) {
  // Offsets are 32-bit and index both halves of the edge array.
  if (arcs.size() > std::numeric_limits<std::uint32_t>::max() / 2)
    throw Error("StateGraph: more arcs than 32-bit offsets can index");
  const std::size_t n = codes_.size();
  const auto m = static_cast<std::uint32_t>(arcs.size());
  // Count into each state's start slot, turn the counts into start
  // positions, place the edges (each slot then holds its state's end), and
  // shift the ends back into starts.
  offsets_.assign(2 * n + 2, 0);
  std::uint32_t* succ = offsets_.data();
  std::uint32_t* pred = succ + n + 1;
  for (const Arc& a : arcs) {
    ++succ[a.from];
    ++pred[a.to];
  }
  std::exclusive_scan(succ, succ + n + 1, succ, std::uint32_t{0});
  std::exclusive_scan(pred, pred + n + 1, pred, m);
  edges_.resize(2 * static_cast<std::size_t>(m));
  ev_mask_.assign(n, {0, 0});
  for (const Arc& a : arcs) {
    edges_[succ[a.from]++] = Edge{a.event, a.to};
    edges_[pred[a.to]++] = Edge{a.event, a.from};
    const int id = event_id(a.event);
    ev_mask_[a.from][id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  std::copy_backward(succ, succ + n, succ + n + 1);
  succ[0] = 0;
  std::copy_backward(pred, pred + n, pred + n + 1);
  pred[0] = m;
}

std::vector<int> StateGraph::input_signals() const {
  std::vector<int> out;
  for (int i = 0; i < num_signals(); ++i)
    if (signals_[i].kind == SignalKind::kInput) out.push_back(i);
  return out;
}

std::vector<int> StateGraph::noninput_signals() const {
  std::vector<int> out;
  for (int i = 0; i < num_signals(); ++i)
    if (is_noninput(signals_[i].kind)) out.push_back(i);
  return out;
}

std::array<std::uint64_t, 2> StateGraph::noninput_event_mask() const {
  std::array<std::uint64_t, 2> mask{0, 0};
  for (int sig = 0; sig < num_signals(); ++sig) {
    if (!is_noninput(signals_[sig].kind)) continue;
    const int id = event_id(Event{sig, false});
    mask[id >> 6] |= std::uint64_t{3} << (id & 63);
  }
  return mask;
}

StateId StateGraph::successor(StateId s, Event e) const {
  if (!enabled(s, e)) return kNoState;
  for (const auto& edge : succs(s))
    if (edge.event == e) return edge.target;
  return kNoState;
}

std::string StateGraph::code_string(StateId s) const {
  std::string out(signals_.size(), '0');
  for (std::size_t i = 0; i < signals_.size(); ++i)
    if (value(s, static_cast<int>(i))) out[i] = '1';
  return out;
}

std::string StateGraph::event_string(Event e) const {
  return event_name(signals_[e.signal].name, e.rising);
}

DynBitset StateGraph::full_set() const {
  DynBitset out(num_states());
  out.set_all();
  return out;
}

DynBitset StateGraph::reachable() const {
  if (all_reachable_) return full_set();
  DynBitset seen(num_states());
  if (initial_ == kNoState) return seen;
  std::vector<StateId> stack{initial_};
  seen.set(initial_);
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const auto& edge : succs(s)) {
      if (!seen.test(edge.target)) {
        seen.set(edge.target);
        stack.push_back(edge.target);
      }
    }
  }
  return seen;
}

std::size_t StateGraph::prune_unreachable(std::vector<StateId>* old_to_new) {
  const DynBitset keep = reachable();
  const std::size_t removed = num_states() - keep.count();
  all_reachable_ = true;
  if (removed == 0) {
    if (old_to_new) {
      old_to_new->resize(num_states());
      std::iota(old_to_new->begin(), old_to_new->end(), StateId{0});
    }
    return 0;
  }

  std::vector<StateId> remap(num_states(), kNoState);
  StateId next = 0;
  for (std::size_t s = 0; s < num_states(); ++s)
    if (keep.test(s)) remap[s] = next++;

  // Every successor of a kept state is reachable, so kept too.
  std::vector<StateCode> codes;
  std::vector<Arc> arcs;
  codes.reserve(static_cast<std::size_t>(next));
  arcs.reserve(num_arcs());
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (!keep.test(s)) continue;
    codes.push_back(codes_[s]);
    for (const auto& e : succs(static_cast<StateId>(s)))
      arcs.push_back(Arc{e.event, remap[s], remap[e.target]});
  }
  codes_ = std::move(codes);
  freeze_arcs(arcs);
  initial_ = remap[initial_];
  if (old_to_new) *old_to_new = std::move(remap);
  return removed;
}

}  // namespace sitm
