#include "sg/state_graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/text.hpp"

namespace sitm {

int StateGraph::add_signal(std::string name, SignalKind kind) {
  if (signals_.size() >= 64) throw Error("StateGraph: more than 64 signals");
  if (find_signal(name) >= 0)
    throw Error("StateGraph: duplicate signal '" + name + "'");
  signals_.push_back(Signal{std::move(name), kind});
  return static_cast<int>(signals_.size()) - 1;
}

StateId StateGraph::add_state(StateCode code) {
  all_reachable_ = false;
  codes_.push_back(code);
  succs_.emplace_back();
  preds_.emplace_back();
  ev_mask_.push_back({0, 0});
  return static_cast<StateId>(codes_.size()) - 1;
}

void StateGraph::add_arc(StateId from, Event ev, StateId to) {
  if (ev.signal < 0 || ev.signal >= num_signals())
    throw Error("StateGraph: arc with unknown signal");
  all_reachable_ = false;
  succs_[from].push_back(Edge{ev, to});
  preds_[to].push_back(Edge{ev, from});
  const int id = event_id(ev);
  ev_mask_[from][id >> 6] |= std::uint64_t{1} << (id & 63);
}

std::size_t StateGraph::num_arcs() const {
  std::size_t n = 0;
  for (const auto& v : succs_) n += v.size();
  return n;
}

int StateGraph::find_signal(std::string_view name) const {
  for (std::size_t i = 0; i < signals_.size(); ++i)
    if (signals_[i].name == name) return static_cast<int>(i);
  return -1;
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
  for (const auto& edge : succs_[s])
    if (edge.event == e) return edge.target;
  return kNoState;
}

std::vector<Event> StateGraph::enabled_events(StateId s) const {
  std::vector<Event> out;
  for (const auto& edge : succs_[s]) {
    if (std::find(out.begin(), out.end(), edge.event) == out.end())
      out.push_back(edge.event);
  }
  return out;
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
    for (const auto& edge : succs_[s]) {
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
  if (old_to_new) *old_to_new = remap;

  std::vector<StateCode> codes;
  std::vector<std::vector<Edge>> succs;
  codes.reserve(next);
  succs.reserve(next);
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (!keep.test(s)) continue;
    codes.push_back(codes_[s]);
    auto edges = succs_[s];
    std::erase_if(edges, [&](const Edge& e) { return remap[e.target] < 0; });
    for (auto& e : edges) e.target = remap[e.target];
    succs.push_back(std::move(edges));
  }

  codes_ = std::move(codes);
  succs_ = std::move(succs);
  preds_.assign(codes_.size(), {});
  ev_mask_.assign(codes_.size(), {0, 0});
  for (std::size_t s = 0; s < codes_.size(); ++s) {
    for (const auto& e : succs_[s]) {
      preds_[e.target].push_back(Edge{e.event, static_cast<StateId>(s)});
      const int id = event_id(e.event);
      ev_mask_[s][id >> 6] |= std::uint64_t{1} << (id & 63);
    }
  }
  initial_ = remap[initial_];
  return removed;
}

}  // namespace sitm
