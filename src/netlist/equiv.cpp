#include "netlist/equiv.hpp"

#include <algorithm>
#include <utility>

#include "sg/regions.hpp"
#include "util/fault.hpp"

namespace sitm {

namespace {

/// Number of distinct codes of the states in `set`.
std::size_t count_distinct_codes(const StateGraph& sg, const DynBitset& set) {
  std::vector<std::uint64_t> codes;
  codes.reserve(set.count());
  set.for_each(
      [&](std::size_t s) { codes.push_back(sg.code(static_cast<StateId>(s))); });
  std::sort(codes.begin(), codes.end());
  return static_cast<std::size_t>(
      std::unique(codes.begin(), codes.end()) - codes.begin());
}

/// The lowest state of `set` where table bit `bit` reads `wrong`, or
/// kNoState.
StateId first_reading(const DynBitset& set, const GateTable& table,
                      std::size_t bit, bool wrong) {
  for (std::size_t u = set.first(); u != DynBitset::npos; u = set.next(u))
    if (table.test(static_cast<StateId>(u), bit) == wrong)
      return static_cast<StateId>(u);
  return kNoState;
}

struct NetworkSpec {
  const char* network;  ///< "complete" | "set" | "reset"
  const Cover* cover;
  std::size_t bit;  ///< the network's bit in the GateTable
  DynBitset on;   ///< states where the network must be 1
  DynBitset off;  ///< states where the network must be 0
  std::vector<Region> regions;  ///< sequential only: zones for condition 3
};

}  // namespace

std::string EquivReport::first_failure() const {
  if (failures.empty()) return {};
  return "equiv: " + failures.front().why;
}

Json EquivReport::to_json() const {
  Json j = Json::object();
  j.set("ok", ok);
  j.set("gates_checked", gates_checked);
  j.set("gates_proven", gates_proven);
  j.set("reach_states", static_cast<double>(reach_states));
  Json fs = Json::array();
  for (const GateVerdict& f : failures) {
    Json fj = Json::object();
    fj.set("signal", f.name);
    fj.set("network", f.network);
    fj.set("why", f.why);
    if (f.counterexample_state != kNoState) {
      fj.set("counterexample_state", static_cast<double>(f.counterexample_state));
      fj.set("counterexample_code", static_cast<double>(f.counterexample_code));
    }
    fs.push(std::move(fj));
  }
  j.set("failures", std::move(fs));
  return j;
}

EquivReport check_equivalence(const Netlist& netlist, const CheckOptions&,
                              const RunGuard* guard) {
  const StateGraph& sg = netlist.sg();
  const int n = sg.num_signals();
  EquivReport rep;
  const DynBitset reachable = sg.reachable();
  rep.reach_states = count_distinct_codes(sg, reachable);
  guard_charge(guard, rep.reach_states, "check.state");
  const GateTable table(netlist);

  auto fail = [&](const SignalImpl& impl, const char* network,
                  std::string why, StateId state) {
    GateVerdict v;
    v.signal = impl.signal;
    v.name = impl.signal >= 0 && impl.signal < n
                 ? sg.signal(impl.signal).name
                 : "<signal " + std::to_string(impl.signal) + ">";
    v.network = network;
    v.proven = false;
    v.why = std::move(why);
    if (state != kNoState) v.counterexample_code = sg.code(state);
    v.counterexample_state = state;
    rep.failures.push_back(std::move(v));
    rep.ok = false;
  };

  const std::uint64_t declared =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;

  const std::vector<SignalImpl>& impls = netlist.impls();
  for (std::size_t i = 0; i < impls.size(); ++i) {
    const SignalImpl& impl = impls[i];
    fault::hit("check.gate");
    guard_check(guard, "check.gate");
    if (impl.signal < 0 || impl.signal >= n ||
        ((impl.set.support() | impl.reset.support()) & ~declared)) {
      rep.gates_checked += 1;
      fail(impl, impl.combinational ? "complete" : "set",
           "implementation of signal index " + std::to_string(impl.signal) +
               " is structurally invalid (see nlint)",
           kNoState);
      continue;
    }
    const std::string& name = sg.signal(impl.signal).name;

    std::vector<NetworkSpec> specs;
    if (impl.combinational) {
      // Spec: the next-state function itself.  CSC makes it code-consistent,
      // so on/off partition the reachable codes exactly.
      NetworkSpec s;
      s.network = "complete";
      s.cover = &impl.set;
      s.bit = 2 * i;
      s.on = sg.empty_set();
      reachable.for_each([&](std::size_t u) {
        if (next_value(sg, static_cast<StateId>(u), impl.signal))
          s.on.set(u);
      });
      s.off = reachable - s.on;
      specs.push_back(std::move(s));
    } else {
      // Spec: the monotonous cover conditions against ER/QR of each edge.
      for (const bool rising : {true, false}) {
        NetworkSpec s;
        s.network = rising ? "set" : "reset";
        s.cover = rising ? &impl.set : &impl.reset;
        s.bit = 2 * i + (rising ? 0 : 1);
        s.regions = excitation_regions(sg, Event{impl.signal, rising});
        s.on = union_er(sg, s.regions);
        const DynBitset dc = union_qr(sg, s.regions);
        s.off = reachable - s.on - dc;
        specs.push_back(std::move(s));
      }
    }

    for (const NetworkSpec& s : specs) {
      rep.gates_checked += 1;
      guard_charge(guard, s.cover->size(), "check.gate");
      guard_charge(guard, s.on.count() + s.off.count(), "check.state");
      bool proven = true;

      // Condition 1: the network covers its whole on-space.
      if (const StateId q = first_reading(s.on, table, s.bit, false);
          q != kNoState) {
        fail(impl, s.network,
             std::string(s.network) + " network of '" + name +
                 "' is 0 in state " + sg.code_string(q) +
                 " where the specification requires 1",
             q);
        proven = false;
      }
      // Condition 2: the network is 0 on the must-off space (the explicit
      // off-states; a code shared with a quiescent state is hard-off,
      // exactly as minimize_onoff treats it).
      if (const StateId q =
              proven ? first_reading(s.off, table, s.bit, true) : kNoState;
          q != kNoState) {
        fail(impl, s.network,
             std::string(s.network) + " network of '" + name +
                 "' is 1 in an off state where the specification requires 0",
             q);
        proven = false;
      }
      // Condition 3 (sequential only): no 0->1 rise within an ER∪QR zone —
      // the same arc scan as monotonous_cover's repair loop.
      if (proven && !s.regions.empty()) {
        for (const Region& region : s.regions) {
          if (!proven) break;
          DynBitset zone = region.er | region.qr;
          zone.for_each([&](std::size_t u) {
            if (!proven) return;
            guard_charge(guard, 1, "check.state");
            if (table.test(static_cast<StateId>(u), s.bit)) return;
            for (const auto& edge : sg.succs(static_cast<StateId>(u))) {
              if (!zone.test(edge.target)) continue;
              if (!table.test(edge.target, s.bit)) continue;
              fail(impl, s.network,
                   std::string(s.network) + " network of '" + name +
                       "' rises 0->1 inside an ER∪QR zone (state " +
                       sg.code_string(edge.target) +
                       "): non-monotonous cover",
                   edge.target);
              proven = false;
              return;
            }
          });
        }
      }
      if (proven) rep.gates_proven += 1;
    }
  }
  return rep;
}

// ----- mutation harness ---------------------------------------------------

const char* netlist_mutation_name(NetlistMutation m) {
  switch (m) {
    case NetlistMutation::kFlipLiteral: return "flip-literal";
    case NetlistMutation::kDropCube: return "drop-cube";
    case NetlistMutation::kSwapSetReset: return "swap-set-reset";
  }
  return "?";
}

bool parse_netlist_mutation(const std::string& name, NetlistMutation* out) {
  for (const NetlistMutation m :
       {NetlistMutation::kFlipLiteral, NetlistMutation::kDropCube,
        NetlistMutation::kSwapSetReset}) {
    if (name == netlist_mutation_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool mutate_netlist(Netlist& netlist, NetlistMutation m, int which) {
  if (which < 0) return false;
  int site = 0;
  for (SignalImpl& impl : netlist.impls()) {
    std::vector<Cover*> covers;
    covers.push_back(&impl.set);
    if (!impl.combinational) covers.push_back(&impl.reset);
    switch (m) {
      case NetlistMutation::kFlipLiteral:
        for (Cover* cover : covers) {
          for (Cube& cube : cover->cubes()) {
            for (int v = 0; v < 64; ++v) {
              if (!cube.has_literal(v)) continue;
              if (site++ == which) {
                cube = cube.with_literal(v, !cube.polarity(v));
                return true;
              }
            }
          }
        }
        break;
      case NetlistMutation::kDropCube:
        // Only multi-cube SOPs: dropping the last cube makes an *empty*
        // network, which is nlint's kEmptyNetwork finding, not an
        // equivalence counterexample.  Minimized covers are irredundant,
        // so every remaining drop uncovers some essential on-state.
        for (Cover* cover : covers) {
          if (cover->size() < 2) continue;
          for (std::size_t i = 0; i < cover->size(); ++i) {
            if (site++ == which) {
              cover->cubes().erase(cover->cubes().begin() +
                                   static_cast<std::ptrdiff_t>(i));
              return true;
            }
          }
        }
        break;
      case NetlistMutation::kSwapSetReset:
        if (impl.combinational) break;
        if (site++ == which) {
          std::swap(impl.set, impl.reset);
          std::swap(impl.set_complexity, impl.reset_complexity);
          return true;
        }
        break;
    }
  }
  return false;
}

}  // namespace sitm
