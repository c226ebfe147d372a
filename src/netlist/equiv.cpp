#include "netlist/equiv.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bdd/bdd.hpp"
#include "bdd/reorder.hpp"
#include "sg/regions.hpp"
#include "util/fault.hpp"

namespace sitm {

namespace {

/// Outer rounds of the sifting search when CheckOptions::reorder is set.
constexpr int kReorderRounds = 2;

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

/// BDD encoding of SG state codes and SOP covers under a (possibly sifted)
/// variable order: signal v lives at BDD variable level[v].  Conjunctions
/// are built from the deepest level upward so every intermediate AND is a
/// single node creation.
class Encoder {
 public:
  Encoder(BddManager& mgr, std::vector<int> level, const RunGuard* guard)
      : mgr_(mgr), level_(std::move(level)), guard_(guard) {
    by_depth_.resize(level_.size());
    std::iota(by_depth_.begin(), by_depth_.end(), 0);
    std::sort(by_depth_.begin(), by_depth_.end(),
              [&](int a, int b) { return level_[a] > level_[b]; });
  }

  int level_of(int var) const { return level_[static_cast<std::size_t>(var)]; }

  BddRef minterm(std::uint64_t code) {
    BddRef t = BddManager::kTrue;
    for (const int v : by_depth_)
      t = mgr_.bdd_and(mgr_.literal(level_of(v), (code >> v) & 1u), t);
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
      for (const int v : by_depth_)
        if (cube.has_literal(v))
          t = mgr_.bdd_and(mgr_.literal(level_of(v), cube.polarity(v)), t);
      f = mgr_.bdd_or(f, t);
    }
    return f;
  }

  /// Map a satisfying assignment over BDD variables back to a state code.
  std::uint64_t decode(std::uint64_t assignment) const {
    std::uint64_t code = 0;
    for (std::size_t v = 0; v < level_.size(); ++v)
      code |= ((assignment >> level_[v]) & 1u) << v;
    return code;
  }

 private:
  BddManager& mgr_;
  std::vector<int> level_;        ///< signal -> BDD variable
  std::vector<int> by_depth_;     ///< signals, deepest BDD level first
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
  std::vector<int> level(static_cast<std::size_t>(sg.num_signals()));
  std::iota(level.begin(), level.end(), 0);
  return Encoder(mgr, std::move(level), guard).states(sg, set);
}

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
  j.set("reach_bdd_size", static_cast<double>(reach_bdd_size));
  j.set("bdd_nodes", static_cast<double>(bdd_nodes));
  j.set("reordered", reordered);
  if (reordered) {
    j.set("reorder_size_before", static_cast<double>(reorder_size_before));
    j.set("reorder_size_after", static_cast<double>(reorder_size_after));
  }
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

EquivReport check_equivalence(const Netlist& netlist, const CheckOptions& opts,
                              const RunGuard* guard) {
  const StateGraph& sg = netlist.sg();
  const int n = sg.num_signals();
  EquivReport rep;
  BddManager mgr(n);
  const DynBitset reachable = sg.reachable();

  BddRef reach = encode_states(mgr, sg, reachable, guard);
  std::vector<int> level(static_cast<std::size_t>(n));
  std::iota(level.begin(), level.end(), 0);
  rep.reach_states = distinct_codes(sg, reachable).size();

  if (opts.reorder && n > 1) {
    const SiftResult sift =
        sift_order(mgr, reach, kReorderRounds);
    rep.reordered = true;
    rep.reorder_size_before = sift.size_before;
    rep.reorder_size_after = sift.size_after;
    reach = permute(mgr, reach, sift.perm);
    level = sift.perm;
  }
  rep.reach_bdd_size = mgr.dag_size(reach);
  Encoder enc(mgr, level, guard);

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
    fault::hit("check.gate");
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
      // Spec: the next-state function itself.  CSC makes it code-consistent,
      // so on/off partition the reachable codes exactly.
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
      // Spec: the monotonous cover conditions against ER/QR of each edge.
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
        std::uint64_t assignment = 0;
        mgr.pick_one(miss, &assignment);
        const std::uint64_t code = enc.decode(assignment);
        const StateId witness = state_with_code(sg, s.on, code);
        fail(impl, s.network,
             std::string(s.network) + " network of '" + name + "' is 0 in " +
                 (witness != kNoState ? "state " + sg.code_string(witness)
                                      : "a state") +
                 " where the specification requires 1",
             code, witness);
        proven = false;
      }
      // Condition 2: the network is 0 on the must-off space (built from the
      // explicit off-state codes; a code shared with a quiescent state is
      // hard-off, exactly as minimize_onoff treats it).
      if (const BddRef fight = mgr.bdd_and(gate, off_b);
          proven && fight != BddManager::kFalse) {
        std::uint64_t assignment = 0;
        mgr.pick_one(fight, &assignment);
        const std::uint64_t code = enc.decode(assignment);
        fail(impl, s.network,
             std::string(s.network) + " network of '" + name +
                 "' is 1 in an off state where the specification requires 0",
             code, state_with_code(sg, s.off, code));
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

  rep.bdd_nodes = mgr.num_nodes();
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
