#include "netlist/si_verify.hpp"

#include <bit>
#include <vector>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/flat_map.hpp"
#include "util/text.hpp"

namespace sitm {

namespace {

/// One delay element of the closed system.
struct Element {
  enum class Kind { kInput, kSetNet, kResetNet, kCOut, kCombOut } kind;
  int signal = -1;        ///< SG signal (of the impl, for nets and outputs)
  std::uint64_t bit = 0;  ///< the element's bit in its excitation word
};

struct Composite {
  StateId q = kNoState;  ///< specification state
  std::uint64_t nets = 0;  ///< bit 2*i = set-net value, 2*i+1 = reset-net
                           ///< value of sequential impl i
  bool operator==(const Composite&) const = default;
};

/// The usual key: a composite state packed into one word, q in the low
/// `q_bits` bits and the nets above.  At most 63 bits are used, so the
/// all-ones word is never a key and marks an empty slot.
struct PackedKeys {
  using Key = std::uint64_t;
  static constexpr Key kEmpty = ~Key{0};
  int q_bits = 0;

  Key pack(const Composite& c) const {
    return static_cast<std::uint32_t>(c.q) | c.nets << q_bits;
  }
  Composite unpack(Key k) const {
    return {static_cast<StateId>(k & ((Key{1} << q_bits) - 1)), k >> q_bits};
  }
  static std::uint64_t hash(Key k) { return hash_mix(k); }
};

/// The key when q and the nets need more than 63 bits (about 27 or more C
/// elements): the composite state itself, empty when q == kNoState.
struct WideKeys {
  using Key = Composite;
  static constexpr Key kEmpty{};
  Key pack(const Composite& c) const { return c; }
  Composite unpack(const Key& k) const { return k; }
  static std::uint64_t hash(const Key& c) {
    return hash_mix(hash_mix(static_cast<std::uint32_t>(c.q)) ^ c.nets);
  }
};

/// The visited set: one open-addressed array of keys, linear probing,
/// doubling at 70 % load.  Insert-only, like the exploration.
template <class Keys>
class VisitedSet {
 public:
  using Key = typename Keys::Key;

  VisitedSet() : slots_(16, Keys::kEmpty), mask_(15) {}

  std::size_t size() const { return size_; }

  /// Start loading `k`'s home slot; a hint only.
  void prefetch(const Key& k) const {
    __builtin_prefetch(&slots_[Keys::hash(k) & mask_]);
  }

  /// Insert `k`; false when it was already present.
  bool insert(const Key& k) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
    if (!place(slots_, mask_, k)) return false;
    ++size_;
    return true;
  }

 private:
  static bool place(std::vector<Key>& slots, std::size_t mask, const Key& k) {
    for (std::size_t i = Keys::hash(k) & mask;; i = (i + 1) & mask) {
      if (slots[i] == Keys::kEmpty) {
        slots[i] = k;
        return true;
      }
      if (slots[i] == k) return false;
    }
  }

  void grow() {
    std::vector<Key> next(slots_.size() * 2, Keys::kEmpty);
    mask_ = next.size() - 1;
    for (const Key& k : slots_)
      if (k != Keys::kEmpty) place(next, mask_, k);
    slots_ = std::move(next);
  }

  std::vector<Key> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

/// What a composite state's excitation depends on through its spec state.
struct SpecWords {
  std::uint64_t gate = 0;    ///< bit 2i / 2i+1: impl i's set / reset cover
  std::uint64_t value = 0;   ///< bit 2i: value of impl i's signal
  std::uint64_t inputs = 0;  ///< bit j: input j has an enabled event
};

/// Excited elements of one composite state, one word per element class.
struct Excitation {
  std::uint64_t inputs = 0;  ///< bit j: input j
  std::uint64_t nets = 0;    ///< bit 2i / 2i+1: impl i's set / reset net
  std::uint64_t outs = 0;    ///< bit 2i: impl i's output (C element or gate)

  std::uint64_t word(Element::Kind kind) const {
    switch (kind) {
      case Element::Kind::kInput:
        return inputs;
      case Element::Kind::kSetNet:
      case Element::Kind::kResetNet:
        return nets;
      case Element::Kind::kCOut:
      case Element::Kind::kCombOut:
        return outs;
    }
    return 0;
  }
};

constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

}  // namespace

SiVerifyResult verify_speed_independence(const Netlist& netlist,
                                         std::size_t max_states,
                                         const RunGuard* guard) {
  const StateGraph& sg = netlist.sg();
  const auto& impls = netlist.impls();

  // Every non-input signal must have an implementation.
  for (int s : sg.noninput_signals())
    if (!netlist.impl_of(s))
      return SiVerifyResult{false,
                            "signal " + sg.signal(s).name + " unimplemented",
                            0};
  if (impls.size() > 32) throw Error("si_verify: more than 32 implementations");

  // Element universe, in firing order, and the masks of the word layout.
  const std::vector<int> inputs = sg.input_signals();
  std::vector<Element> elements;
  for (std::size_t j = 0; j < inputs.size(); ++j)
    elements.push_back(
        Element{Element::Kind::kInput, inputs[j], std::uint64_t{1} << j});
  std::uint64_t seq_net_mask = 0, comb_mask = 0;
  for (std::size_t i = 0; i < impls.size(); ++i) {
    const std::uint64_t even = std::uint64_t{1} << (2 * i);
    if (impls[i].combinational) {
      comb_mask |= even;
      elements.push_back(
          Element{Element::Kind::kCombOut, impls[i].signal, even});
    } else {
      seq_net_mask |= even | even << 1;
      elements.push_back(
          Element{Element::Kind::kSetNet, impls[i].signal, even});
      elements.push_back(
          Element{Element::Kind::kResetNet, impls[i].signal, even << 1});
      elements.push_back(
          Element{Element::Kind::kCOut, impls[i].signal, even});
    }
  }

  // Gates read only the spec code, so every cover is evaluated once per
  // spec state (the shared GateTable) instead of once per element and
  // composite state.  At most 32 impls: one table word per state.
  const GateTable gates(netlist);
  std::vector<SpecWords> spec_words(sg.num_states());
  for (StateId q = 0; q < static_cast<StateId>(sg.num_states()); ++q) {
    SpecWords& w = spec_words[q];
    w.gate = gates.row(q)[0];
    for (std::size_t i = 0; i < impls.size(); ++i)
      if (sg.value(q, impls[i].signal)) w.value |= std::uint64_t{1} << (2 * i);
    for (std::size_t j = 0; j < inputs.size(); ++j)
      if (sg.enabled(q, Event{inputs[j], true}) ||
          sg.enabled(q, Event{inputs[j], false}))
        w.inputs |= std::uint64_t{1} << j;
  }

  // Muller C element out = C(S, ~R): rises when S=1,R=0; falls when S=0,R=1;
  // holds otherwise (S=R=1 transients are legal holds).  Combinational
  // impls have no nets, so their S and R bits are zero here.
  auto excitation = [&](const Composite& c) {
    const SpecWords& w = spec_words[c.q];
    const std::uint64_t set = c.nets & kEvenBits;
    const std::uint64_t reset = (c.nets >> 1) & kEvenBits;
    const std::uint64_t c_out =
        (set & ~reset & ~w.value) | (reset & ~set & w.value);
    return Excitation{w.inputs, (w.gate ^ c.nets) & seq_net_mask,
                      c_out | ((w.gate ^ w.value) & comb_mask)};
  };

  SiVerifyResult result;
  auto fail = [&](std::string why) {
    result.ok = false;
    result.why = std::move(why);
  };
  auto stop_unverified = [&](GuardStop stop, std::string why) {
    result.ok = false;
    result.unverified = true;
    result.stopped = stop;
    result.why = std::move(why);
  };

  // Depth-first exploration; the stack and the visited set hold `keys`'s
  // packed form of each composite state.
  auto explore = [&]<class Keys>(const Keys& keys) {
    VisitedSet<Keys> seen;

    // Initial composite state: spec initial state, S/R nets settled.
    const Composite init{sg.initial(),
                         spec_words[sg.initial()].gate & seq_net_mask};
    std::vector<typename Keys::Key> stack{keys.pack(init)};
    seen.insert(stack.back());

    std::vector<std::pair<const Element*, Composite>> successors;
    while (!stack.empty() && result.ok) {
      const Composite c = keys.unpack(stack.back());
      stack.pop_back();
      // A guard trip (or an injected one) is "ran out of budget", not "found
      // a hazard": surface it as an unverified result, never an exception.
      try {
        fault::hit("verify.state");
        guard_charge(guard, 1, "verify.state");
      } catch (const GuardExhausted& e) {
        stop_unverified(e.kind(), e.what());
        break;
      }

      // Successors: fire every excited element in turn.
      const Excitation ec = excitation(c);
      successors.clear();
      for (const auto& e : elements) {
        if (!(ec.word(e.kind) & e.bit)) continue;
        switch (e.kind) {
          case Element::Kind::kInput: {
            for (bool rising : {true, false}) {
              const StateId q2 = sg.successor(c.q, Event{e.signal, rising});
              if (q2 != kNoState)
                successors.push_back({&e, Composite{q2, c.nets}});
            }
            break;
          }
          case Element::Kind::kSetNet:
          case Element::Kind::kResetNet:
            successors.push_back({&e, Composite{c.q, c.nets ^ e.bit}});
            break;
          case Element::Kind::kCOut:
          case Element::Kind::kCombOut: {
            const bool rising = !sg.value(c.q, e.signal);
            const StateId q2 = sg.successor(c.q, Event{e.signal, rising});
            if (q2 == kNoState) {
              fail(strfmt("circuit fires %s not allowed by the specification "
                          "in state %s",
                          event_name(sg.signal(e.signal).name, rising).c_str(),
                          sg.code_string(c.q).c_str()));
              break;
            }
            successors.push_back({&e, Composite{q2, c.nets}});
            break;
          }
        }
        if (!result.ok) break;
      }
      if (!result.ok) break;

      // The set outgrows the cache on large explorations: start every
      // successor's probe now, so its miss overlaps the checks below.
      for (const auto& successor : successors)
        seen.prefetch(keys.pack(successor.second));

      // Semi-modularity: firing one element must not dis-excite another
      // non-input element.  The lowest impl among the lost bits is the first
      // such element in element order, which names the hazard.
      for (const auto& [fired, next] : successors) {
        const Excitation en = excitation(next);
        std::uint64_t lost_nets = ec.nets & ~en.nets;
        std::uint64_t lost_outs = ec.outs & ~en.outs;
        if (fired->kind == Element::Kind::kSetNet ||
            fired->kind == Element::Kind::kResetNet)
          lost_nets &= ~fired->bit;
        else if (fired->kind != Element::Kind::kInput)
          lost_outs &= ~fired->bit;
        if (lost_nets | lost_outs) {
          const int impl = std::countr_zero(lost_nets | lost_outs) / 2;
          fail(strfmt("gate for signal %s dis-excited (hazard) when %s fires",
                      sg.signal(impls[impl].signal).name.c_str(),
                      sg.signal(fired->signal).name.c_str()));
          break;
        }
        const auto key = keys.pack(next);
        if (seen.insert(key)) {
          if (seen.size() > max_states) {
            stop_unverified(
                GuardStop::kBudget,
                strfmt("composite state budget exhausted: %zu states of "
                       "limit %zu explored without a violation",
                       seen.size(), max_states));
            break;
          }
          stack.push_back(key);
        }
      }
    }

    // Distinct composite states discovered — not pops: an exploration cut
    // short by a failure still reports every state it has seen.
    result.num_states = seen.size();
  };

  const int q_bits = std::bit_width(sg.num_states());
  if (q_bits + std::bit_width(seq_net_mask) > 63)
    explore(WideKeys{});
  else
    explore(PackedKeys{q_bits});
  return result;
}

}  // namespace sitm
