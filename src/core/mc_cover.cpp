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

using Literals = std::array<std::uint64_t, 2>;  // bit 2*v + polarity
using Forced = ParentBounds::Forced;

/// `code` with every event of `enabled` (an enabled_mask) fired: the
/// next-state value of every signal.
std::uint64_t next_code(std::uint64_t code,
                        const std::array<std::uint64_t, 2>& enabled) {
  for (int w = 0; w < 2; ++w) {
    for (std::uint64_t bits = enabled[w]; bits != 0; bits &= bits - 1) {
      const int id = 64 * w + std::countr_zero(bits);
      const std::uint64_t sig = std::uint64_t{1} << (id >> 1);
      code = (id & 1) ? (code | sig) : (code & ~sig);
    }
  }
  return code;
}

int count(const Literals& l) {
  return std::popcount(l[0]) + std::popcount(l[1]);
}

/// Forced states in the greedy's order, as parallel arrays.
struct Ordered {
  std::vector<std::uint64_t> code, vars;
  std::vector<unsigned> side;
  std::vector<int> literals;  ///< popcount(vars)
};

/// The disjoint-cube sum of the states whose side is in the `sides` mask:
/// keep the states, in the greedy order, that are apart from every state
/// kept before, and add up their forced variables.  `kept` is scratch
/// space, the kept states' codes then their variables.
int disjoint_cube_literals(const Ordered& states, unsigned sides,
                           std::vector<std::uint64_t>& kept) {
  kept.clear();
  std::size_t count = 0;
  int literals = 0;
  for (std::size_t i = 0; i < states.code.size(); ++i) {
    if (((sides >> states.side[i]) & 1) == 0) continue;
    const std::uint64_t code = states.code[i], vars = states.vars[i];
    bool apart = true;
    for (std::size_t k = 0; k < count; ++k)
      apart &= ((kept[2 * k] ^ code) & (kept[2 * k + 1] | vars)) != 0;
    if (!apart) continue;
    kept.push_back(code);
    kept.push_back(vars);
    ++count;
    literals += states.literals[i];
  }
  return literals;
}

/// Signal a's bounds from its forced states, in state id order: the union
/// terms, raised by the disjoint-cube terms.  `ordered` and `kept` are
/// scratch space.
CoverBounds forced_bound(std::span<const Forced> group, int a,
                         Ordered& ordered, std::vector<std::uint64_t>& kept) {
  Literals set{0, 0}, reset{0, 0}, complete{0, 0};
  for (const Forced& f : group) {
    // An arc keeps a's value, so the state's value names its cover.
    Literals& side = ((f.code >> a) & 1) ? reset : set;
    for (int w = 0; w < 2; ++w) {
      complete[w] |= f.lits[w];
      side[w] |= f.lits[w];
    }
  }
  CoverBounds b{count(set), count(reset), count(complete)};
  if (group.empty()) return b;

  // The greedy order: most forced variables first, then by id (a stable
  // counting sort by descending count).
  std::array<std::uint32_t, 66> at{};
  for (const Forced& f : group) ++at[64 - std::popcount(f.vars) + 1];
  std::partial_sum(at.begin(), at.end(), at.begin());
  const std::size_t k = group.size();
  ordered.code.resize(k);
  ordered.vars.resize(k);
  ordered.side.resize(k);
  ordered.literals.resize(k);
  for (const Forced& f : group) {
    const int literals = std::popcount(f.vars);
    const std::uint32_t i = at[64 - literals]++;
    ordered.code[i] = f.code;
    ordered.vars[i] = f.vars;
    ordered.side[i] = f.side;
    ordered.literals[i] = literals;
  }
  // Sides: bit 2 * (value of a) + next_a.
  constexpr unsigned kStable0 = 1u << 0, kErRise = 1u << 1;
  constexpr unsigned kErFall = 1u << 2, kStable1 = 1u << 3;
  // max(floor, min(direct, complement)).  A greedy sum is at most its
  // sides' total forced variables, so a side whose total does not exceed
  // the floor, or a first sum that does not, decides it without the rest.
  std::array<int, 4> total{};
  for (std::size_t i = 0; i < k; ++i)
    total[ordered.side[i]] += ordered.literals[i];
  const auto sides_total = [&](unsigned sides) {
    int sum = 0;
    for (unsigned side = 0; side < 4; ++side)
      if ((sides >> side) & 1) sum += total[side];
    return sum;
  };
  const auto raise = [&](int floor, unsigned direct, unsigned complement) {
    if (sides_total(direct) <= floor || sides_total(complement) <= floor)
      return floor;
    const int d = disjoint_cube_literals(ordered, direct, kept);
    if (d <= floor) return floor;
    return std::max(
        floor, std::min(d, disjoint_cube_literals(ordered, complement, kept)));
  };
  b.set = raise(b.set, kErRise, kStable0);
  b.reset = raise(b.reset, kErFall, kStable1);
  b.complete = raise(b.complete, kErRise | kStable1, kStable0 | kErFall);
  return b;
}

}  // namespace

ParentBounds::ParentBounds(const StateGraph& sg) : sg_(sg) {
  const auto n = static_cast<StateId>(sg.num_states());
  next_.resize(static_cast<std::size_t>(n));
  for (StateId s = 0; s < n; ++s)
    next_[static_cast<std::size_t>(s)] =
        next_code(sg.code(s), sg.enabled_mask(s));
  for (const int sig : sg.noninput_signals())
    noninput_ |= std::uint64_t{1} << sig;

  // Signals whose next-state boundary the arc s -> t crosses, its own
  // signal v excepted: the arc forces v's variable at both ends.
  const auto crossing = [&](StateId s, StateId t, int v) {
    return (next_[static_cast<std::size_t>(s)] ^
            next_[static_cast<std::size_t>(t)]) &
           noninput_ & ~(std::uint64_t{1} << v);
  };
  // Every state that such arcs end at, for each crossed signal a, with the
  // variables they force there.  States are visited in id order and meet
  // their arcs from both ends, so each signal's states come out in id order.
  struct Entry {
    int signal;
    Forced forced;
  };
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(n));  // about one per state
  state_begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  std::array<std::uint64_t, 64> vars{};
  std::array<Literals, 64> lits{};
  for (StateId s = 0; s < n; ++s) {
    const std::uint64_t next = next_[static_cast<std::size_t>(s)];
    std::uint64_t touched = 0;
    for (const auto& edge : sg.succs(s)) {
      const int v = edge.event.signal;
      for (std::uint64_t c = crossing(s, edge.target, v); c != 0; c &= c - 1) {
        const int a = std::countr_zero(c);
        const StateId on = ((next >> a) & 1) ? s : edge.target;
        // Named by v's value at the next=1 end.  The reset cover's
        // on-state is the other end, but flipping every pair's polarity
        // leaves the count of distinct pairs as it is.
        const int lit = 2 * v + (sg.value(on, v) ? 1 : 0);
        lits[a][lit >> 6] |= std::uint64_t{1} << (lit & 63);
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
      Forced f;
      f.code = sg.code(s);
      f.vars = std::exchange(vars[a], 0);
      f.lits = std::exchange(lits[a], Literals{0, 0});
      f.state = s;
      f.side = static_cast<unsigned>(2 * ((f.code >> a) & 1) +
                                     ((next >> a) & 1));
      entries.push_back(Entry{a, f});
    }
    state_begin_[static_cast<std::size_t>(s) + 1] =
        static_cast<std::uint32_t>(entries.size());
  }

  // Group the forced states by signal, a stable counting sort that keeps
  // them in id order, and remember where each state's went.
  const auto signals = static_cast<std::size_t>(sg.num_signals());
  signal_begin_.assign(signals + 1, 0);
  for (const Entry& e : entries)
    ++signal_begin_[static_cast<std::size_t>(e.signal) + 1];
  std::partial_sum(signal_begin_.begin(), signal_begin_.end(),
                   signal_begin_.begin());
  forced_.resize(entries.size());
  at_state_.resize(entries.size());
  signal_of_.resize(entries.size());
  std::vector<std::uint32_t> at(signal_begin_.begin(), signal_begin_.end() - 1);
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const auto a = static_cast<std::size_t>(entries[k].signal);
    forced_[at[a]] = entries[k].forced;
    at_state_[k] = at[a]++;
    signal_of_[k] = entries[k].signal;
  }

  bounds_.resize(signals);
  Ordered ordered;
  std::vector<std::uint64_t> kept;
  for (std::size_t a = 0; a < signals; ++a)
    bounds_[a] = forced_bound(
        std::span<const Forced>(forced_.data() + signal_begin_[a],
                                forced_.data() + signal_begin_[a + 1]),
        static_cast<int>(a), ordered, kept);
}

std::vector<CoverBounds> ParentBounds::after(
    const InsertionPreview& preview) const {
  const StateGraph& sg = sg_;
  const InsertionPlan& plan = preview.plan();
  const std::size_t n = sg.num_states();
  const int x = sg.num_signals();
  const std::uint64_t xbit = std::uint64_t{1} << x;
  const std::uint64_t noninput = noninput_ | xbit;

  // T: the region states and the states whose one copy is pruned.
  const DynBitset er = plan.er_rise | plan.er_fall;
  DynBitset touched = er;
  if (preview.num_states() != n + er.count())
    for (std::size_t s = 0; s < n; ++s)
      if (!er.test(s) &&
          !preview.copy_reachable(static_cast<StateId>(s), plan.s1.test(s)))
        touched.set(s);

  const auto copy_code = [&](StateId s, bool v) {
    return sg.code(s) | (v ? xbit : 0);
  };
  // Each existing copy's next-state code, by pair index 2 * s + v: a copy
  // outside the regions has its state's, with x's bit v; a region copy
  // its own, from the events it enables.
  std::vector<std::uint64_t> pair_next(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool v = plan.s1.test(i);
    pair_next[2 * i + (v ? 1 : 0)] = next_[i] | (v ? xbit : 0);
  }
  er.for_each([&](std::size_t i) {
    const auto s = static_cast<StateId>(i);
    for (const bool v : {false, true})
      if (preview.copy_reachable(s, v))
        pair_next[2 * i + (v ? 1 : 0)] =
            next_code(copy_code(s, v), preview.enabled_mask(s, v));
  });
  const auto copy_next = [&pair_next](StateId s, bool v) {
    return pair_next[2 * static_cast<std::size_t>(s) + (v ? 1 : 0)];
  };

  // The area whose forced states are recomputed: T, and each neighbour s
  // of T with an arc to T whose crossing signals changed.  Such an arc
  // joins s's one copy (s, v) to (t, v), or is gone when (t, v) is pruned;
  // every other arc of s is the parent's, and an arc contributes by its
  // crossing signals alone, so s keeps its parent entries otherwise.
  DynBitset area = touched;
  touched.for_each([&](std::size_t i) {
    const auto t = static_cast<StateId>(i);
    const auto check = [&](StateId s, int sig) {
      const auto j = static_cast<std::size_t>(s);
      if (area.test(j)) return;
      const std::uint64_t own = std::uint64_t{1} << sig;
      const std::uint64_t before = (next_[j] ^ next_[i]) & noninput_ & ~own;
      const bool v = plan.s1.test(j);
      const std::uint64_t now =
          preview.copy_reachable(t, v)
              ? (copy_next(s, v) ^ copy_next(t, v)) & noninput & ~own
              : 0;
      if (now != before) area.set(j);
    };
    for (const auto& edge : sg.succs(t)) check(edge.target, edge.event.signal);
    for (const auto& edge : sg.preds(t)) check(edge.target, edge.event.signal);
  });

  // The forced states of the area's surviving copies, in the inserted
  // graph's id order, and the signals where they differ from the parent's.
  std::vector<std::pair<int, Forced>> fresh;
  fresh.reserve(2 * area.count());  // about one per copy
  std::uint64_t changed = xbit;
  std::array<std::uint64_t, 64> vars{};
  std::array<Literals, 64> lits{};
  // One arc of a copy with `code` and `next` to or from a copy with
  // `t_next` (and `t_code`, for the literal of an outgoing arc).
  const auto arc = [&](std::uint64_t code, std::uint64_t next, Event e,
                       std::uint64_t t_code, std::uint64_t t_next,
                       bool outgoing, std::uint64_t* hit) {
    const std::uint64_t own = std::uint64_t{1} << e.signal;
    for (std::uint64_t c = (next ^ t_next) & noninput & ~own; c != 0;
         c &= c - 1) {
      const int a = std::countr_zero(c);
      vars[a] |= own;
      *hit |= std::uint64_t{1} << a;
      if (!outgoing) continue;
      const std::uint64_t on = ((next >> a) & 1) ? code : t_code;
      const int lit = 2 * e.signal + static_cast<int>((on >> e.signal) & 1);
      lits[a][lit >> 6] |= std::uint64_t{1} << (lit & 63);
    }
  };
  area.for_each([&](std::size_t i) {
    const auto s = static_cast<StateId>(i);
    const std::size_t first = fresh.size();
    for (const bool v : {false, true}) {
      if (!preview.copy_reachable(s, v)) continue;
      const std::uint64_t code = copy_code(s, v), s_next = copy_next(s, v);
      std::uint64_t hit = 0;
      preview.for_each_succ(s, v, [&](Event e, StateId t, bool tv) {
        arc(code, s_next, e, copy_code(t, tv), copy_next(t, tv), true, &hit);
      });
      preview.for_each_pred(s, v, [&](Event e, StateId u, bool uv) {
        arc(code, s_next, e, 0, copy_next(u, uv), false, &hit);
      });
      for (; hit != 0; hit &= hit - 1) {
        const int a = std::countr_zero(hit);
        Forced f;
        f.code = code;
        f.vars = std::exchange(vars[a], 0);
        f.lits = std::exchange(lits[a], Literals{0, 0});
        f.state = s;
        f.side = static_cast<unsigned>(2 * ((code >> a) & 1) +
                                       ((s_next >> a) & 1));
        fresh.emplace_back(a, f);
      }
    }
    // A signal keeps its parent entry at s when exactly one copy has an
    // equal one.
    std::uint64_t seen = 0, twice = 0, had = 0;
    for (std::size_t k = first; k < fresh.size(); ++k) {
      const std::uint64_t bit = std::uint64_t{1} << fresh[k].first;
      twice |= seen & bit;
      seen |= bit;
    }
    for (std::uint32_t j = state_begin_[i]; j < state_begin_[i + 1]; ++j) {
      const int a = signal_of_[j];
      had |= std::uint64_t{1} << a;
      const Forced& p = forced_[at_state_[j]];
      const auto it = std::find_if(
          fresh.begin() + static_cast<std::ptrdiff_t>(first), fresh.end(),
          [&](const auto& e) { return e.first == a; });
      if (it == fresh.end() || it->second.vars != p.vars ||
          it->second.lits != p.lits || it->second.side != p.side)
        changed |= std::uint64_t{1} << a;
    }
    changed |= twice | (seen & ~had);
  });

  // The changed signals, and x, from the parent's forced states outside
  // the area (their one copy is on their S1 side) and the fresh ones.
  std::vector<CoverBounds> out(bounds_);
  out.emplace_back();
  std::vector<Forced> group;
  Ordered ordered;
  std::vector<std::uint64_t> kept;
  for (std::uint64_t c = changed; c != 0; c &= c - 1) {
    const int a = std::countr_zero(c);
    const auto ai = static_cast<std::size_t>(a);
    const std::span<const Forced> parent =
        a < x ? std::span<const Forced>(
                    forced_.data() + signal_begin_[ai],
                    forced_.data() + signal_begin_[ai + 1])
              : std::span<const Forced>();
    auto p = parent.begin();
    const auto parent_before = [&](StateId limit) {
      for (; p != parent.end() && p->state < limit; ++p) {
        const auto s = static_cast<std::size_t>(p->state);
        if (area.test(s)) continue;
        group.push_back(*p);
        if (plan.s1.test(s)) group.back().code |= xbit;
      }
    };
    group.clear();
    for (const auto& [signal, f] : fresh) {
      if (signal != a) continue;
      parent_before(f.state);
      group.push_back(f);
    }
    parent_before(static_cast<StateId>(n));
    out[ai] = forced_bound(group, a, ordered, kept);
  }
  return out;
}

std::vector<CoverBounds> cover_lower_bounds(const StateGraph& sg) {
  return ParentBounds(sg).bounds();
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
