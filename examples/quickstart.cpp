// Quickstart: the paper's running example (hazard.g, Figures 1 and 5).
//
// Loads the hazard specification, synthesizes the standard-C implementation,
// shows why the divisor a'*d of Sx = a'*c*d is illegal while a'*c and c*d
// are legal, and finally maps the circuit onto 2-input gates.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "benchlib/generators.hpp"
#include "core/insertion.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "netlist/si_verify.hpp"
#include "sg/properties.hpp"
#include "sg/sg_io.hpp"
#include "stg/stg.hpp"

using namespace sitm;

int main() {
  // 1. The specification: an STG with inputs a, d and outputs c, x.
  const Stg stg = bench::make_hazard();
  const StateGraph sg = stg.to_state_graph();
  std::printf("=== hazard.g: %zu states, %d signals ===\n%s\n",
              sg.num_states(), sg.num_signals(),
              write_sg_string(sg, "hazard").c_str());

  // 2. Check the flow preconditions.
  const auto ok = check_implementability(sg);
  std::printf("implementable specification: %s\n\n", ok ? "yes" : ok.why.c_str());

  // 3. The monotonous-cover (standard-C) implementation before mapping.
  const Netlist before = synthesize_all(sg);
  std::printf("standard-C implementation (Figure 5a):\n%s\n",
              before.to_string().c_str());

  // 4. Divisors of Sx = a'*c*d (Figure 1): a'd is illegal, a'c / cd legal.
  const int a = sg.find_signal("a");
  const int c = sg.find_signal("c");
  const int d = sg.find_signal("d");
  std::vector<std::string> names;
  for (const auto& s : sg.signals()) names.push_back(s.name);

  struct Trial {
    const char* label;
    Cover f;
  };
  const Trial trials[] = {
      {"a'd", Cover(sg.num_signals(),
                    {Cube::literal(a, false).with_literal(d, true)})},
      {"a'c", Cover(sg.num_signals(),
                    {Cube::literal(a, false).with_literal(c, true)})},
      {"cd", Cover(sg.num_signals(),
                   {Cube::literal(c, true).with_literal(d, true)})},
  };
  for (const auto& trial : trials) {
    const auto plan = InsertionPlanner(sg).plan(trial.f);
    if (plan) {
      std::printf("divisor %-4s -> legal insertion: |ER(x+)|=%zu, "
                  "|ER(x-)|=%zu\n",
                  trial.label, plan->er_rise.count(), plan->er_fall.count());
    } else {
      std::printf("divisor %-4s -> ILLEGAL\n", trial.label);
    }
  }

  // 5. Full technology mapping onto 2-input gates (Figure 5b).
  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(sg, opts);
  if (!result.implementable) {
    std::printf("\nmapping failed: %s\n", result.failure.c_str());
    return 1;
  }
  std::printf("\nmapped with %d inserted signal(s); chosen divisor: %s\n",
              result.signals_inserted,
              result.steps.empty()
                  ? "-"
                  : result.steps[0].divisor.to_string(names).c_str());
  const Netlist after = result.build_netlist();
  std::printf("2-input implementation (Figure 5b):\n%s\n",
              after.to_string().c_str());

  // 6. Independent gate-level verification.
  const SiVerifyResult verify = verify_speed_independence(after);
  std::printf("gate-level SI verification: %s (%zu composite states)\n",
              verify.ok ? "PASS" : verify.why.c_str(), verify.num_states);
  return verify.ok ? 0 : 1;
}
