#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/bitwords.hpp"

namespace sitm {

int gate_complexity(const Cover& sop, const std::optional<Cover>& complement) {
  const int direct = sop.num_literals();
  Cover comp = complement ? *complement : sop.complement();
  comp.merge_adjacent();
  const int inverted = comp.num_literals();
  // Constant gates have complexity 0 either way.
  if (sop.empty() || comp.empty()) return 0;
  return std::min(direct, inverted);
}

GateTable::GateTable(const Netlist& netlist)
    : stride_(std::max<std::size_t>(
          1, bitwords::words_for(2 * netlist.impls().size()))) {
  const StateGraph& sg = netlist.sg();
  const auto& impls = netlist.impls();
  words_.assign(sg.num_states() * stride_, 0);
  for (StateId q = 0; q < static_cast<StateId>(sg.num_states()); ++q) {
    std::uint64_t* row = words_.data() + static_cast<std::size_t>(q) * stride_;
    const StateCode code = sg.code(q);
    for (std::size_t i = 0; i < impls.size(); ++i) {
      const std::uint64_t even = std::uint64_t{1} << (2 * i % 64);
      if (impls[i].set.eval(code)) row[i / 32] |= even;
      if (!impls[i].combinational && impls[i].reset.eval(code))
        row[i / 32] |= even << 1;
    }
  }
}

const SignalImpl* Netlist::impl_of(int signal) const {
  for (const auto& impl : impls_)
    if (impl.signal == signal) return &impl;
  return nullptr;
}

namespace {
int set_gc(const SignalImpl& impl) {
  return impl.set_complexity >= 0 ? impl.set_complexity
                                  : gate_complexity(impl.set);
}
int reset_gc(const SignalImpl& impl) {
  return impl.reset_complexity >= 0 ? impl.reset_complexity
                                    : gate_complexity(impl.reset);
}
}  // namespace

int Netlist::num_c_elements() const {
  int n = 0;
  for (const auto& impl : impls_)
    if (!impl.combinational) ++n;
  return n;
}

int Netlist::total_literals() const {
  int n = 0;
  for (const auto& impl : impls_) {
    if (impl.combinational) {
      n += set_gc(impl);
    } else {
      n += set_gc(impl) + reset_gc(impl);
    }
  }
  return n;
}

std::vector<int> Netlist::complexity_histogram() const {
  std::vector<int> hist;
  auto bump = [&](int c) {
    if (c >= static_cast<int>(hist.size())) hist.resize(c + 1, 0);
    ++hist[c];
  };
  for (const auto& impl : impls_) {
    bump(set_gc(impl));
    if (!impl.combinational) bump(reset_gc(impl));
  }
  return hist;
}

int Netlist::max_gate_complexity() const {
  int best = 0;
  for (const auto& impl : impls_) {
    best = std::max(best, set_gc(impl));
    if (!impl.combinational) best = std::max(best, reset_gc(impl));
  }
  return best;
}

std::string Netlist::to_string() const {
  std::vector<std::string> names;
  names.reserve(sg_->num_signals());
  for (const auto& sig : sg_->signals()) names.push_back(sig.name);

  std::string out;
  for (const auto& impl : impls_) {
    const auto& name = sg_->signal(impl.signal).name;
    if (impl.combinational) {
      out += name + " = " + impl.set.to_string(names) + "\n";
    } else {
      out += name + " = C(set: " + impl.set.to_string(names) +
             ", reset: " + impl.reset.to_string(names) + ")\n";
    }
  }
  return out;
}

}  // namespace sitm
