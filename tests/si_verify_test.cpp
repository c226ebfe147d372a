// Differential test of the word-parallel speed-independence verifier
// (netlist/si_verify.cpp) against the element-by-element explorer it
// replaced, kept here verbatim as the oracle.  Every SiVerifyResult field
// must agree: on the mapped corpus at i=2/3/4, on every seeded mutant of
// those netlists, on explorations cut short by the state limit and by a
// work budget, on the csc_rings specs (ring5 included), on random specs,
// and on netlists whose packed composite key needs exactly 63 bits and
// more than 63 (the verifier's 8- and 16-byte visited-set slots).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
#include "core/mc_cover.hpp"
#include "flow/flow.hpp"
#include "netlist/equiv.hpp"
#include "netlist/si_verify.hpp"
#include "stg/load.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/flat_map.hpp"
#include "util/text.hpp"

namespace sitm {
namespace {

// ----- oracle: the element-by-element explorer ----------------------------

/// One delay element of the closed system.
struct Element {
  enum class Kind { kInput, kSetNet, kResetNet, kCOut, kCombOut } kind;
  int signal = -1;      ///< SG signal (all kinds except pure nets use it)
  int impl_index = -1;  ///< index into netlist.impls() for net/output kinds
};

struct Composite {
  StateId q = kNoState;  ///< specification state
  std::uint64_t nets = 0;  ///< bit 2*i = set-net value, 2*i+1 = reset-net
                           ///< value of sequential impl i
  bool operator==(const Composite&) const = default;
};

/// Hash for the open-addressed visited set (the exploration's inner loop;
/// an ordered map spent most of the verification in node allocation).
struct CompositeHash {
  std::uint64_t operator()(const Composite& c) const {
    return hash_mix(hash_mix(static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(c.q))) ^
                    c.nets);
  }
};

SiVerifyResult oracle_verify(const Netlist& netlist, std::size_t max_states,
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

  // Element universe.
  std::vector<Element> elements;
  for (int s : sg.input_signals())
    elements.push_back(Element{Element::Kind::kInput, s, -1});
  for (std::size_t i = 0; i < impls.size(); ++i) {
    if (impls[i].combinational) {
      elements.push_back(
          Element{Element::Kind::kCombOut, impls[i].signal, static_cast<int>(i)});
    } else {
      elements.push_back(
          Element{Element::Kind::kSetNet, impls[i].signal, static_cast<int>(i)});
      elements.push_back(Element{Element::Kind::kResetNet, impls[i].signal,
                                 static_cast<int>(i)});
      elements.push_back(
          Element{Element::Kind::kCOut, impls[i].signal, static_cast<int>(i)});
    }
  }

  auto net_bit = [](int impl_index, bool reset) {
    return std::uint64_t{1} << (2 * impl_index + (reset ? 1 : 0));
  };

  // Excitation of an element in a composite state.  For inputs the possible
  // transitions are given by the specification.
  auto excited = [&](const Element& e, const Composite& c) -> bool {
    const StateCode code = sg.code(c.q);
    switch (e.kind) {
      case Element::Kind::kInput:
        return sg.enabled(c.q, Event{e.signal, true}) ||
               sg.enabled(c.q, Event{e.signal, false});
      case Element::Kind::kSetNet: {
        const bool now = (c.nets & net_bit(e.impl_index, false)) != 0;
        return impls[e.impl_index].set.eval(code) != now;
      }
      case Element::Kind::kResetNet: {
        const bool now = (c.nets & net_bit(e.impl_index, true)) != 0;
        return impls[e.impl_index].reset.eval(code) != now;
      }
      case Element::Kind::kCOut: {
        // Muller C element out = C(S, ~R): rises when S=1,R=0; falls when
        // S=0,R=1; holds otherwise (S=R=1 transients are legal holds).
        const bool set = (c.nets & net_bit(e.impl_index, false)) != 0;
        const bool reset = (c.nets & net_bit(e.impl_index, true)) != 0;
        const bool value = sg.value(c.q, e.signal);
        return (set && !reset && !value) || (reset && !set && value);
      }
      case Element::Kind::kCombOut:
        return impls[e.impl_index].set.eval(code) != sg.value(c.q, e.signal);
    }
    return false;
  };

  SiVerifyResult result;
  FlatMap<Composite, char, CompositeHash> seen;

  // Initial composite state: spec initial state, S/R nets settled.
  Composite init{sg.initial(), 0};
  {
    const StateCode code = sg.code(init.q);
    for (std::size_t i = 0; i < impls.size(); ++i) {
      if (impls[i].combinational) continue;
      if (impls[i].set.eval(code)) init.nets |= net_bit(static_cast<int>(i), false);
      if (impls[i].reset.eval(code)) init.nets |= net_bit(static_cast<int>(i), true);
    }
  }

  std::vector<Composite> queue{init};
  seen.emplace(init, 0);

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

  while (!queue.empty() && result.ok) {
    const Composite c = queue.back();
    queue.pop_back();
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
    std::vector<std::pair<const Element*, Composite>> successors;
    for (const auto& e : elements) {
      if (!excited(e, c)) continue;
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
        case Element::Kind::kResetNet: {
          Composite n = c;
          n.nets ^= net_bit(e.impl_index, e.kind == Element::Kind::kResetNet);
          successors.push_back({&e, n});
          break;
        }
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

    // Semi-modularity: firing one element must not dis-excite another
    // non-input element.
    for (const auto& [fired, next] : successors) {
      for (const auto& e : elements) {
        if (&e == fired || e.kind == Element::Kind::kInput) continue;
        if (excited(e, c) && !excited(e, next)) {
          fail(strfmt("gate for signal %s dis-excited (hazard) when %s fires",
                      sg.signal(e.signal).name.c_str(),
                      sg.signal(fired->signal).name.c_str()));
          break;
        }
      }
      if (!result.ok) break;
      auto [slot, inserted] = seen.emplace(next, 0);
      if (inserted) {
        if (seen.size() > max_states) {
          stop_unverified(
              GuardStop::kBudget,
              strfmt("composite state budget exhausted: %zu states of "
                     "limit %zu explored without a violation",
                     seen.size(), max_states));
          break;
        }
        queue.push_back(next);
      }
    }
  }

  // Distinct composite states discovered — not pops: an exploration cut
  // short by a failure still reports every state it has seen.
  result.num_states = seen.size();
  return result;
}

// ----- comparison ---------------------------------------------------------

/// Work budget that trips inside every exploration larger than this many
/// composite states.
constexpr std::uint64_t kTripBudget = 50;

/// Tally of the compared runs, so a vacuous sweep shows.
struct Tally {
  int runs = 0;
  int hazards = 0;      ///< rejected for a dis-excited gate
  int conformance = 0;  ///< rejected for a transition the spec forbids
  int unverified = 0;
};

void expect_same(const Netlist& netlist, std::size_t max_states,
                 std::uint64_t work_budget, const std::string& what,
                 Tally& tally) {
  RunGuard oracle_guard, guard;
  oracle_guard.set_work_budget(work_budget);
  guard.set_work_budget(work_budget);
  const SiVerifyResult want = oracle_verify(netlist, max_states, &oracle_guard);
  const SiVerifyResult got =
      verify_speed_independence(netlist, max_states, &guard);
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.unverified, want.unverified) << what;
  EXPECT_EQ(got.stopped, want.stopped) << what;
  EXPECT_EQ(got.why, want.why) << what;
  EXPECT_EQ(got.num_states, want.num_states) << what;
  ++tally.runs;
  if (want.unverified) {
    ++tally.unverified;
  } else if (want.why.find("hazard") != std::string::npos) {
    ++tally.hazards;
  } else if (want.why.find("not allowed") != std::string::npos) {
    ++tally.conformance;
  }
}

/// The netlist at full budget, at `max_states = 100` and under a tripping
/// work budget; with `mutants`, also every site of every mutation kind.
void compare_all(const Netlist& netlist, const std::string& what,
                 bool mutants, Tally& tally) {
  const std::size_t full = std::size_t{1} << 20;
  expect_same(netlist, full, 0, what, tally);
  expect_same(netlist, 100, 0, what + " max_states=100", tally);
  expect_same(netlist, full, kTripBudget, what + " budget", tally);
  if (!mutants) return;
  for (const NetlistMutation kind :
       {NetlistMutation::kFlipLiteral, NetlistMutation::kDropCube,
        NetlistMutation::kSwapSetReset}) {
    for (int which = 0;; ++which) {
      Netlist mutant = netlist;
      if (!mutate_netlist(mutant, kind, which)) break;
      expect_same(mutant, full, 0,
                  what + " " + netlist_mutation_name(kind) + " #" +
                      std::to_string(which),
                  tally);
    }
  }
}

/// Run `flow` through map at library size `literals`.  Returns the mapped
/// netlist, which refers to the flow's state graph, or null when the flow
/// fails.
const Netlist* mapped(Flow& flow, Spec spec, int literals) {
  FlowOptions opts;
  opts.stop_after = Stage::kMap;
  opts.mapper.library.max_literals = literals;
  flow = Flow(opts);
  if (!flow.run_spec(std::move(spec)).ok || !flow.context().netlist)
    return nullptr;
  return &*flow.context().netlist;
}

Spec stg_spec(Stg stg, std::string name) {
  Spec spec;
  spec.name = std::move(name);
  spec.format = SpecFormat::kG;
  spec.stg = std::move(stg);
  return spec;
}

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const auto dir =
      std::filesystem::path(SITM_SOURCE_DIR) / "data" / "benchmarks";
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".g") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

class CorpusDiff : public ::testing::TestWithParam<int> {};

TEST_P(CorpusDiff, EveryNetlistAndMutantAgreesWithTheOracle) {
  const int literals = GetParam();
  const auto files = corpus_files();
  ASSERT_EQ(files.size(), 32u);
  Tally tally;
  for (const auto& path : files) {
    Flow flow;
    const Netlist* netlist = mapped(flow, load_spec_file(path), literals);
    ASSERT_NE(netlist, nullptr) << path;
    compare_all(*netlist, path + " i=" + std::to_string(literals), true,
                tally);
  }
  // The sweep reaches both kinds of violation and both early stops.
  EXPECT_GT(tally.hazards, 0);
  EXPECT_GT(tally.conformance, 0);
  EXPECT_GT(tally.unverified, 0);
}

INSTANTIATE_TEST_SUITE_P(Literals, CorpusDiff, ::testing::Values(2, 3, 4));

TEST(SiVerifyDiff, CscRingsAgreeAndKeepTheirStateCounts) {
  struct Case {
    std::string name;
    Stg stg;
    std::size_t composite_states;
  };
  const Case cases[] = {
      {"ring3", bench::make_csc_ring(3), 1744},
      {"ring4", bench::make_csc_ring(4), 81920},
      {"diamond3x3", bench::make_csc_diamond_ring(3, 3), 34624},
  };
  Tally tally;
  for (const auto& c : cases) {
    Flow flow;
    const Netlist* netlist = mapped(flow, stg_spec(c.stg, c.name), 2);
    ASSERT_NE(netlist, nullptr) << c.name;
    const SiVerifyResult verdict = verify_speed_independence(*netlist);
    EXPECT_TRUE(verdict.ok) << c.name << ": " << verdict.why;
    EXPECT_EQ(verdict.num_states, c.composite_states) << c.name;
    // Mutants of the small ring only: a mutant that stays speed-independent
    // explores the whole space, twice.
    compare_all(*netlist, c.name, c.name == "ring3", tally);
  }
  EXPECT_GT(tally.hazards + tally.conformance, 0);
}

TEST(SiVerifyDiff, Ring5KeepsItsStateCount) {
  Flow flow;
  const Netlist* netlist =
      mapped(flow, stg_spec(bench::make_csc_ring(5), "ring5"), 2);
  ASSERT_NE(netlist, nullptr);
  const SiVerifyResult verdict = verify_speed_independence(*netlist);
  EXPECT_TRUE(verdict.ok) << verdict.why;
  EXPECT_EQ(verdict.num_states, 518144u);
  Tally tally;
  compare_all(*netlist, "ring5", false, tally);
}

/// Bits of the verifier's packed composite key: the spec state's width plus
/// the highest set/reset net's.
int key_bits(const Netlist& netlist) {
  std::uint64_t nets = 0;
  for (std::size_t i = 0; i < netlist.impls().size(); ++i)
    if (!netlist.impls()[i].combinational) nets |= std::uint64_t{3} << (2 * i);
  return std::bit_width(netlist.sg().num_states()) + std::bit_width(nets);
}

Netlist synthesize(const StateGraph& sg, Architecture architecture) {
  McOptions opts;
  opts.architecture = architecture;
  return synthesize_all(sg, opts);
}

TEST(SiVerifyDiff, KeysTooWideToPackAgree) {
  // 31 C elements: 62 net bits beside the 7 of the 64 spec states.
  const StateGraph sg = bench::make_seq_chain(30).to_state_graph();
  const Netlist netlist = synthesize(sg, Architecture::kStandardC);
  ASSERT_GT(key_bits(netlist), 63);
  Tally tally;
  compare_all(netlist, "seq_chain(30)", true, tally);
  EXPECT_GT(tally.unverified, 0);
  EXPECT_GT(tally.hazards + tally.conformance, 0);
  EXPECT_TRUE(verify_speed_independence(netlist).ok);
}

TEST(SiVerifyDiff, SixtyThreeBitKeysAgree) {
  // seq_chain(30) with C elements for the first 28 signals and complex
  // gates for the last three: 7 state bits and 56 net bits.
  const StateGraph sg = bench::make_seq_chain(30).to_state_graph();
  const Netlist c_elements = synthesize(sg, Architecture::kStandardC);
  const Netlist gates = synthesize(sg, Architecture::kComplexGate);
  Netlist netlist(&sg);
  for (std::size_t i = 0; i < c_elements.impls().size(); ++i)
    netlist.add_impl(i < 28 ? c_elements.impls()[i] : gates.impls()[i]);
  ASSERT_EQ(key_bits(netlist), 63);
  Tally tally;
  compare_all(netlist, "seq_chain(30) mixed", true, tally);
  EXPECT_GT(tally.unverified, 0);
  EXPECT_GT(tally.hazards + tally.conformance, 0);
  EXPECT_TRUE(verify_speed_independence(netlist).ok);
}

TEST(SiVerifyDiff, RandomSpecsAgree) {
  Tally tally;
  int mapped_specs = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string name = "random" + std::to_string(seed);
    Flow flow;
    const Netlist* netlist =
        mapped(flow, stg_spec(bench::make_random_stg(seed), name), 3);
    if (netlist == nullptr) continue;
    ++mapped_specs;
    compare_all(*netlist, name, true, tally);
  }
  EXPECT_GE(mapped_specs, 6);
  EXPECT_GT(tally.hazards + tally.conformance, 0);
}

}  // namespace
}  // namespace sitm
