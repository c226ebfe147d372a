#include "core/mc_cover.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <numeric>
#include <span>
#include <utility>

#include "boolf/minimize.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/scheduler.hpp"

namespace sitm {

namespace {

std::vector<std::uint64_t> codes_of(const StateGraph& sg, const DynBitset& set) {
  std::vector<std::uint64_t> out;
  out.reserve(set.count());
  set.for_each([&](std::size_t s) {
    out.push_back(sg.code(static_cast<StateId>(s)));
  });
  return out;
}

/// Monotonicity violations (MC condition 3): a 0->1 change of `cover` along
/// an arc that stays within ERj u QRj of some region.  Returns the states to
/// force into the off-set.
DynBitset monotonicity_violations(const StateGraph& sg, const Cover& cover,
                                  const std::vector<Region>& regions) {
  DynBitset bad(sg.num_states());
  for (const auto& region : regions) {
    DynBitset zone = region.er | region.qr;
    zone.for_each([&](std::size_t u) {
      if (cover.eval(sg.code(static_cast<StateId>(u)))) return;
      for (const auto& edge : sg.succs(static_cast<StateId>(u))) {
        if (!zone.test(edge.target)) continue;
        if (cover.eval(sg.code(edge.target))) bad.set(edge.target);
      }
    });
  }
  return bad;
}

/// Distinct literals (signal, polarity) that arcs between `on` and `off`
/// force into every cover of `on` that avoids `off`.  Such an arc changes
/// one signal v, so the cube holding its on-state must carry v's literal;
/// the complemented cover, with on and off swapped, must carry the opposite
/// literal.  The count therefore bounds the literals of either cover.
int arc_forced_literals(const StateGraph& sg, const DynBitset& on,
                        const DynBitset& off) {
  std::array<std::uint64_t, 2> forced{0, 0};  // bit 2*v + polarity
  const auto mark = [&](StateId u, StateId w) {
    if (!off.test(static_cast<std::size_t>(w))) return;
    const std::uint64_t diff = sg.code(u) ^ sg.code(w);
    if (!std::has_single_bit(diff)) return;
    const int v = std::countr_zero(diff);
    const int lit = 2 * v + (sg.value(u, v) ? 1 : 0);
    forced[lit >> 6] |= std::uint64_t{1} << (lit & 63);
  };
  on.for_each([&](std::size_t s) {
    const auto u = static_cast<StateId>(s);
    for (const auto& edge : sg.succs(u)) mark(u, edge.target);
    for (const auto& edge : sg.preds(u)) mark(u, edge.target);
  });
  return std::popcount(forced[0]) + std::popcount(forced[1]);
}

/// The gate measure min(lit(direct), lit(complement)), where the complement
/// is `off` minimized against `on`.  That minimization is skipped when
/// `forced` (a lower bound of its literals) shows it cannot win.  The direct
/// cover was minimized from the same two sets, so they do not intersect.
int gate_literals(const Cover& direct, int forced,
                  const std::vector<std::uint64_t>& on_codes,
                  const std::vector<std::uint64_t>& off_codes, int num_vars,
                  const MinimizeOptions& mopts, int* minimizations) {
  const int lits = direct.num_literals();
  if (lits <= forced) return lits;
  ++*minimizations;
  return std::min(
      lits, minimize_onoff(off_codes, on_codes, num_vars, mopts).num_literals());
}

}  // namespace

EventCover monotonous_cover(const StateGraph& sg, Event e,
                            const McOptions& opts, int* minimizations) {
  int calls = 0;
  EventCover out;
  out.event = e;
  out.regions = excitation_regions(sg, e);

  out.on = union_er(sg, out.regions);
  out.dc = union_qr(sg, out.regions);
  const DynBitset reachable = sg.reachable();
  out.off = reachable - out.on - out.dc;

  const MinimizeOptions mopts{opts.minimize_passes};
  const auto on_codes = codes_of(sg, out.on);

  // Repair loop: enforce condition 3 by moving rising quiescent states to
  // the off-set and re-minimizing.  Terminates because each round shrinks
  // the don't-care set.
  std::vector<std::uint64_t> off_codes;
  while (true) {
    off_codes = codes_of(sg, out.off);
    ++calls;
    out.cover = minimize_onoff(on_codes, off_codes, sg.num_signals(), mopts);
    const DynBitset bad = monotonicity_violations(sg, out.cover, out.regions);
    if (bad.none()) break;
    out.off |= bad;
    out.dc -= bad;
  }

  // The complemented form is minimized with the final don't-care space, and
  // only when it could have fewer literals.
  out.complexity = gate_literals(out.cover,
                                 arc_forced_literals(sg, out.on, out.off),
                                 on_codes, off_codes, sg.num_signals(), mopts,
                                 &calls);
  if (minimizations) *minimizations += calls;
  return out;
}

Cover complete_cover(const StateGraph& sg, int sig, int* complexity,
                     const McOptions& opts, int* minimizations) {
  int calls = 1;
  DynBitset on_set = sg.empty_set();
  const DynBitset reachable = sg.reachable();
  reachable.for_each([&](std::size_t s) {
    if (next_value(sg, static_cast<StateId>(s), sig)) on_set.set(s);
  });
  const DynBitset off_set = reachable - on_set;
  const auto on = codes_of(sg, on_set);
  const auto off = codes_of(sg, off_set);
  const MinimizeOptions mopts{opts.minimize_passes};
  Cover direct = minimize_onoff(on, off, sg.num_signals(), mopts);
  if (complexity)
    *complexity = gate_literals(direct, arc_forced_literals(sg, on_set, off_set),
                                on, off, sg.num_signals(), mopts, &calls);
  if (minimizations) *minimizations += calls;
  return direct;
}

SignalSynthesis synthesize_signal(const StateGraph& sg, int sig,
                                  const McOptions& opts,
                                  const CoverBounds* bound) {
  if (sg.signal(sig).kind == SignalKind::kInput)
    throw Error("synthesize_signal: input signal " + sg.signal(sig).name);

  SignalSynthesis out;
  out.signal = sig;
  out.set = monotonous_cover(sg, Event{sig, true}, opts, &out.minimizations);
  out.reset = monotonous_cover(sg, Event{sig, false}, opts, &out.minimizations);
  const int seq = std::max(out.set.complexity, out.reset.complexity);

  // The complete cover is minimized only when it could be chosen.
  const bool wanted =
      opts.architecture == Architecture::kComplexGate ||
      (opts.architecture == Architecture::kAuto &&
       !(bound && bound->complete > seq));
  if (wanted) {
    out.complete = complete_cover(sg, sig, &out.complete_complexity, opts,
                                  &out.minimizations);
  } else if (bound) {
    out.complete_complexity = bound->complete;
  }

  switch (opts.architecture) {
    case Architecture::kAuto:
      out.combinational = wanted && out.complete_complexity <= seq;
      break;
    case Architecture::kStandardC:
      out.combinational = false;
      break;
    case Architecture::kComplexGate:
      out.combinational = true;
      break;
  }
  out.complexity = out.combinational ? out.complete_complexity : seq;
  return out;
}

namespace {

/// A state with the variables forced at it for one signal a
/// (cover_lower_bounds), and its side: 2 * (value of a) + next_a.
struct ForcedState {
  std::uint64_t code = 0;
  std::uint64_t vars = 0;
  unsigned side = 0;
};

/// The disjoint-cube sum of the states whose side is in the `sides` mask:
/// keep the states, in the given greedy order, that are apart from every
/// state kept before, and add up their forced variables.  `kept` is
/// scratch space.
int disjoint_cube_literals(std::span<const ForcedState> states, unsigned sides,
                           std::vector<const ForcedState*>& kept) {
  kept.clear();
  int literals = 0;
  for (const ForcedState& s : states) {
    if (((sides >> s.side) & 1) == 0) continue;
    const bool apart = std::ranges::all_of(kept, [&](const ForcedState* k) {
      return ((k->code ^ s.code) & (k->vars | s.vars)) != 0;
    });
    if (!apart) continue;
    kept.push_back(&s);
    literals += std::popcount(s.vars);
  }
  return literals;
}

}  // namespace

std::vector<CoverBounds> cover_lower_bounds(const StateGraph& sg) {
  using Literals = std::array<std::uint64_t, 2>;  // bit 2*v + polarity
  const auto n = static_cast<StateId>(sg.num_states());
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n));
  for (StateId s = 0; s < n; ++s) {
    std::uint64_t code = sg.code(s);
    const auto& enabled = sg.enabled_mask(s);
    for (int w = 0; w < 2; ++w) {
      for (std::uint64_t bits = enabled[w]; bits != 0; bits &= bits - 1) {
        const int id = 64 * w + std::countr_zero(bits);
        const std::uint64_t sig = std::uint64_t{1} << (id >> 1);
        code = (id & 1) ? (code | sig) : (code & ~sig);
      }
    }
    next[s] = code;
  }

  std::uint64_t noninput = 0;
  for (const int sig : sg.noninput_signals())
    noninput |= std::uint64_t{1} << sig;
  const auto signals = static_cast<std::size_t>(sg.num_signals());
  std::vector<Literals> set(signals), reset(signals), complete(signals);
  // Signals whose next-state boundary the arc s -> t crosses, its own
  // signal v excepted: the arc forces v's variable at both ends.
  const auto crossing = [&](StateId s, StateId t, int v) {
    return (next[s] ^ next[t]) & noninput & ~(std::uint64_t{1} << v);
  };
  // Every state that such arcs end at, for each crossed signal a, with the
  // variables they force there.  States are visited in id order and meet
  // their arcs from both ends, so each signal's states come out in id order.
  struct Forced {
    int signal;
    ForcedState state;
  };
  std::vector<Forced> forced;
  forced.reserve(static_cast<std::size_t>(n));  // about one per state
  std::array<std::uint64_t, 64> vars{};
  for (StateId s = 0; s < n; ++s) {
    std::uint64_t touched = 0;
    for (const auto& edge : sg.succs(s)) {
      const int v = edge.event.signal;
      for (std::uint64_t c = crossing(s, edge.target, v); c != 0; c &= c - 1) {
        const int a = std::countr_zero(c);
        const StateId on = ((next[s] >> a) & 1) ? s : edge.target;
        // Named by v's value at the next=1 end.  The reset cover's
        // on-state is the other end, but flipping every pair's polarity
        // leaves the count of distinct pairs as it is.
        const int lit = 2 * v + (sg.value(on, v) ? 1 : 0);
        const std::uint64_t bit = std::uint64_t{1} << (lit & 63);
        complete[a][lit >> 6] |= bit;
        (sg.value(s, a) ? reset[a] : set[a])[lit >> 6] |= bit;
        vars[a] |= std::uint64_t{1} << v;
        touched |= std::uint64_t{1} << a;
      }
    }
    for (const auto& edge : sg.preds(s)) {
      const int v = edge.event.signal;
      for (std::uint64_t c = crossing(edge.target, s, v); c != 0; c &= c - 1) {
        const int a = std::countr_zero(c);
        vars[a] |= std::uint64_t{1} << v;
        touched |= std::uint64_t{1} << a;
      }
    }
    for (; touched != 0; touched &= touched - 1) {
      const int a = std::countr_zero(touched);
      ForcedState f;
      f.code = sg.code(s);
      f.vars = std::exchange(vars[a], 0);
      f.side = static_cast<unsigned>(2 * ((f.code >> a) & 1) +
                                     ((next[s] >> a) & 1));
      forced.push_back(Forced{a, f});
    }
  }

  // The union terms.
  const auto count = [](const Literals& l) {
    return std::popcount(l[0]) + std::popcount(l[1]);
  };
  std::vector<CoverBounds> out(signals);
  for (std::size_t a = 0; a < signals; ++a)
    out[a] = CoverBounds{count(set[a]), count(reset[a]), count(complete[a])};

  // Group the forced states by signal, a stable counting sort that keeps
  // them in id order.
  std::vector<std::size_t> start(signals + 1, 0);
  for (const Forced& f : forced) ++start[static_cast<std::size_t>(f.signal)];
  std::exclusive_scan(start.begin(), start.end(), start.begin(),
                      std::size_t{0});
  std::vector<ForcedState> states(forced.size());
  {
    std::vector<std::size_t> at(start.begin(), start.end() - 1);
    for (const Forced& f : forced)
      states[at[static_cast<std::size_t>(f.signal)]++] = f.state;
  }

  // The disjoint-cube terms, signal by signal: order the states for the
  // greedy (most forced variables first, then by id) and raise each bound
  // to min(direct, complement).  Sides: bit 2 * (value of a) + next_a.
  constexpr unsigned kStable0 = 1u << 0, kErRise = 1u << 1;
  constexpr unsigned kErFall = 1u << 2, kStable1 = 1u << 3;
  std::vector<ForcedState> ordered;
  std::vector<const ForcedState*> kept;
  for (std::size_t a = 0; a < signals; ++a) {
    const std::span<const ForcedState> group(states.data() + start[a],
                                             states.data() + start[a + 1]);
    if (group.empty()) continue;
    // A stable sort by descending count, one pass per count.
    int most = 0;
    for (const ForcedState& f : group)
      most = std::max(most, std::popcount(f.vars));
    ordered.clear();
    for (int count = most; count > 0; --count)
      for (const ForcedState& f : group)
        if (std::popcount(f.vars) == count) ordered.push_back(f);
    const auto disjoint = [&](unsigned direct, unsigned complement) {
      return std::min(disjoint_cube_literals(ordered, direct, kept),
                      disjoint_cube_literals(ordered, complement, kept));
    };
    CoverBounds& b = out[a];
    b.set = std::max(b.set, disjoint(kErRise, kStable0));
    b.reset = std::max(b.reset, disjoint(kErFall, kStable1));
    b.complete =
        std::max(b.complete, disjoint(kErRise | kStable1, kStable0 | kErFall));
  }
  return out;
}

namespace {

/// The one per-signal step every synthesis loop runs: fault site, guard
/// charge, then the pure synthesis.
SignalSynthesis synthesize_charged(const StateGraph& sg, int sig,
                                   const McOptions& opts,
                                   const RunGuard* guard,
                                   const CoverBounds* bound) {
  fault::hit("synth.signal");
  guard_charge(guard, 1, "synth.signal");
  return synthesize_signal(sg, sig, opts, bound);
}

}  // namespace

bool synthesize_while(
    const StateGraph& sg, const std::vector<int>& sigs, const McOptions& opts,
    const RunGuard* guard, const std::vector<CoverBounds>& bounds,
    std::vector<SignalSynthesis>* out,
    const std::function<bool(const SignalSynthesis&)>& keep_going) {
  for (const int sig : sigs) {
    out->push_back(synthesize_charged(
        sg, sig, opts, guard, &bounds[static_cast<std::size_t>(sig)]));
    if (!keep_going(out->back())) return false;
  }
  return true;
}

Netlist netlist_of(const StateGraph& sg,
                   const std::vector<SignalSynthesis>& syntheses) {
  Netlist netlist(&sg);
  for (const SignalSynthesis& synth : syntheses) {
    SignalImpl impl;
    impl.signal = synth.signal;
    impl.combinational = synth.combinational;
    impl.complexity = synth.complexity;
    if (synth.combinational) {
      impl.set = *synth.complete;
      impl.set_complexity = synth.complete_complexity;
    } else {
      impl.set = synth.set.cover;
      impl.reset = synth.reset.cover;
      impl.set_complexity = synth.set.complexity;
      impl.reset_complexity = synth.reset.complexity;
    }
    netlist.add_impl(std::move(impl));
  }
  return netlist;
}

Netlist synthesize_all(const StateGraph& sg, const McOptions& opts,
                       std::vector<SignalSynthesis>* out_syntheses,
                       const RunGuard* guard) {
  // The SG is shared read-only and each signal's synthesis is independent,
  // so any schedule fills the per-slot results of the serial loop.
  const std::vector<int> sigs = sg.noninput_signals();
  // Only kAuto reads the bounds, and they need every state reachable.
  const std::vector<CoverBounds> bounds =
      opts.architecture == Architecture::kAuto && sg.all_reachable()
          ? cover_lower_bounds(sg)
          : std::vector<CoverBounds>{};
  std::vector<SignalSynthesis> syntheses(sigs.size());
  parallel_for(sigs.size(), opts.threads, [&](std::size_t i) {
    const auto sig = static_cast<std::size_t>(sigs[i]);
    syntheses[i] = synthesize_charged(sg, sigs[i], opts, guard,
                                      bounds.empty() ? nullptr : &bounds[sig]);
  });
  Netlist netlist = netlist_of(sg, syntheses);
  if (out_syntheses) *out_syntheses = std::move(syntheses);
  return netlist;
}

}  // namespace sitm
