#include "support/bdd_equiv.hpp"

#include <algorithm>
#include <utility>

#include "sg/regions.hpp"

namespace sitm {

namespace {

/// The distinct codes of the states in `set`, ascending.
std::vector<std::uint64_t> distinct_codes(const StateGraph& sg,
                                          const DynBitset& set) {
  std::vector<std::uint64_t> codes;
  codes.reserve(set.count());
  set.for_each(
      [&](std::size_t s) { codes.push_back(sg.code(static_cast<StateId>(s))); });
  std::sort(codes.begin(), codes.end());
  codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  return codes;
}

/// BDD encoding of SG state codes and SOP covers, signal v at BDD variable
/// v.  Conjunctions are built from the deepest variable upward so every
/// intermediate AND is a single node creation.
class Encoder {
 public:
  Encoder(BddManager& mgr, int num_signals, const RunGuard* guard)
      : mgr_(mgr), n_(num_signals), guard_(guard) {}

  BddRef minterm(std::uint64_t code) {
    BddRef t = BddManager::kTrue;
    for (int v = n_ - 1; v >= 0; --v)
      t = mgr_.bdd_and(mgr_.literal(v, (code >> v) & 1u), t);
    return t;
  }

  /// OR of the minterms of every distinct code of `states`.
  BddRef states(const StateGraph& sg, const DynBitset& set) {
    BddRef r = BddManager::kFalse;
    for (const std::uint64_t code : distinct_codes(sg, set)) {
      guard_charge(guard_, 1, "check.state");
      r = mgr_.bdd_or(r, minterm(code));
    }
    return r;
  }

  BddRef cover(const Cover& c) {
    BddRef f = BddManager::kFalse;
    for (const Cube& cube : c.cubes()) {
      guard_charge(guard_, 1, "check.gate");
      BddRef t = BddManager::kTrue;
      for (int v = n_ - 1; v >= 0; --v)
        if (cube.has_literal(v))
          t = mgr_.bdd_and(mgr_.literal(v, cube.polarity(v)), t);
      f = mgr_.bdd_or(f, t);
    }
    return f;
  }

 private:
  BddManager& mgr_;
  int n_;
  const RunGuard* guard_;
};

/// First state of `among` carrying `code` (the witness a human replays).
StateId state_with_code(const StateGraph& sg, const DynBitset& among,
                        std::uint64_t code) {
  StateId found = kNoState;
  among.for_each([&](std::size_t s) {
    if (found == kNoState && sg.code(static_cast<StateId>(s)) == code)
      found = static_cast<StateId>(s);
  });
  return found;
}

struct NetworkSpec {
  const char* network;  ///< "complete" | "set" | "reset"
  const Cover* cover;
  DynBitset on;   ///< states where the network must be 1
  DynBitset off;  ///< states where the network must be 0
  std::vector<Region> regions;  ///< sequential only: zones for condition 3
};

}  // namespace

BddRef encode_states(BddManager& mgr, const StateGraph& sg,
                     const DynBitset& set, const RunGuard* guard) {
  return Encoder(mgr, sg.num_signals(), guard).states(sg, set);
}

EquivReport check_equivalence_bdd(const Netlist& netlist,
                                  const RunGuard* guard) {
  const StateGraph& sg = netlist.sg();
  const int n = sg.num_signals();
  EquivReport rep;
  BddManager mgr(n);
  const DynBitset reachable = sg.reachable();
  encode_states(mgr, sg, reachable, guard);
  rep.reach_states = distinct_codes(sg, reachable).size();
  Encoder enc(mgr, n, guard);

  auto fail = [&](const SignalImpl& impl, const char* network,
                  std::string why, std::uint64_t code, StateId state) {
    GateVerdict v;
    v.signal = impl.signal;
    v.name = impl.signal >= 0 && impl.signal < n
                 ? sg.signal(impl.signal).name
                 : "<signal " + std::to_string(impl.signal) + ">";
    v.network = network;
    v.proven = false;
    v.why = std::move(why);
    v.counterexample_code = code;
    v.counterexample_state = state;
    rep.failures.push_back(std::move(v));
    rep.ok = false;
  };

  const std::uint64_t declared =
      n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;

  for (const SignalImpl& impl : netlist.impls()) {
    guard_check(guard, "check.gate");
    if (impl.signal < 0 || impl.signal >= n ||
        ((impl.set.support() | impl.reset.support()) & ~declared)) {
      rep.gates_checked += 1;
      fail(impl, impl.combinational ? "complete" : "set",
           "implementation of signal index " + std::to_string(impl.signal) +
               " is structurally invalid (see nlint)",
           0, kNoState);
      continue;
    }
    const std::string& name = sg.signal(impl.signal).name;

    std::vector<NetworkSpec> specs;
    if (impl.combinational) {
      NetworkSpec s;
      s.network = "complete";
      s.cover = &impl.set;
      s.on = sg.empty_set();
      reachable.for_each([&](std::size_t u) {
        if (next_value(sg, static_cast<StateId>(u), impl.signal))
          s.on.set(u);
      });
      s.off = reachable - s.on;
      specs.push_back(std::move(s));
    } else {
      for (const bool rising : {true, false}) {
        NetworkSpec s;
        s.network = rising ? "set" : "reset";
        s.cover = rising ? &impl.set : &impl.reset;
        s.regions = excitation_regions(sg, Event{impl.signal, rising});
        s.on = union_er(sg, s.regions);
        const DynBitset dc = union_qr(sg, s.regions);
        s.off = reachable - s.on - dc;
        specs.push_back(std::move(s));
      }
    }

    for (const NetworkSpec& s : specs) {
      rep.gates_checked += 1;
      const BddRef gate = enc.cover(*s.cover);
      const BddRef on_b = enc.states(sg, s.on);
      const BddRef off_b = enc.states(sg, s.off);
      bool proven = true;

      // Condition 1: the network covers its whole on-space.
      if (const BddRef miss = mgr.bdd_and(on_b, mgr.bdd_not(gate));
          miss != BddManager::kFalse) {
        std::uint64_t code = 0;
        mgr.pick_one(miss, &code);
        const StateId witness = state_with_code(sg, s.on, code);
        fail(impl, s.network,
             std::string(s.network) + " network of '" + name +
                 "' is 0 in state " + sg.code_string(witness) +
                 " where the specification requires 1",
             code, witness);
        proven = false;
      }
      // Condition 2: the network is 0 on the explicit off-states.
      if (const BddRef fight = mgr.bdd_and(gate, off_b);
          proven && fight != BddManager::kFalse) {
        std::uint64_t code = 0;
        mgr.pick_one(fight, &code);
        fail(impl, s.network,
             std::string(s.network) + " network of '" + name +
                 "' is 1 in an off state where the specification requires 0",
             code, state_with_code(sg, s.off, code));
        proven = false;
      }
      // Condition 3 (sequential only): no 0->1 rise within an ER∪QR zone.
      if (proven && !s.regions.empty()) {
        for (const Region& region : s.regions) {
          if (!proven) break;
          DynBitset zone = region.er | region.qr;
          zone.for_each([&](std::size_t u) {
            if (!proven) return;
            if (s.cover->eval(sg.code(static_cast<StateId>(u)))) return;
            for (const auto& edge : sg.succs(static_cast<StateId>(u))) {
              if (!zone.test(edge.target)) continue;
              if (!s.cover->eval(sg.code(edge.target))) continue;
              fail(impl, s.network,
                   std::string(s.network) + " network of '" + name +
                       "' rises 0->1 inside an ER∪QR zone (state " +
                       sg.code_string(edge.target) +
                       "): non-monotonous cover",
                   sg.code(edge.target), edge.target);
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

}  // namespace sitm
