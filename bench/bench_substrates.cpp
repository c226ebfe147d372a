// Micro-benchmarks of the substrates: two-level minimizer, cover algebra,
// kernel extraction, region computation, SI verification of generator
// netlists.  The equivalence check and verify on the mapped csc_rings
// netlists are measured in bench_scaling (BM_CheckEquivalence,
// BM_SiVerifyCscRing).

#include <benchmark/benchmark.h>

#include "benchlib/generators.hpp"
#include "boolf/minimize.hpp"
#include "core/mc_cover.hpp"
#include "mlogic/division.hpp"
#include "netlist/si_verify.hpp"
#include "sg/regions.hpp"
#include "stg/stg.hpp"
#include "util/rng.hpp"

namespace {

using namespace sitm;

/// Deterministic random on/off partition over n variables.
void random_onoff(int n, std::uint64_t seed, std::vector<std::uint64_t>* on,
                  std::vector<std::uint64_t>* off) {
  Rng rng(seed);
  for (std::uint64_t code = 0; code < (std::uint64_t{1} << n); ++code) {
    const auto r = rng.below(3);
    if (r == 0) on->push_back(code);
    if (r == 1) off->push_back(code);
  }
}

void BM_MinimizeOnOff(benchmark::State& state) {
  std::vector<std::uint64_t> on, off;
  random_onoff(static_cast<int>(state.range(0)), 42, &on, &off);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        minimize_onoff(on, off, static_cast<int>(state.range(0))));
  }
  state.counters["on"] = static_cast<double>(on.size());
}
BENCHMARK(BM_MinimizeOnOff)->DenseRange(6, 14, 2);

void BM_CoverComplement(benchmark::State& state) {
  std::vector<std::uint64_t> on, off;
  random_onoff(10, 7, &on, &off);
  const Cover f = minimize_onoff(on, off, 10);
  for (auto _ : state) benchmark::DoNotOptimize(f.complement());
}
BENCHMARK(BM_CoverComplement);

void BM_Kernels(benchmark::State& state) {
  // (a+b+c)(d+e)f + g — the classic kernel workload, scaled by replication.
  Cover f(24);
  const int copies = static_cast<int>(state.range(0));
  for (int k = 0; k < copies; ++k) {
    const int base = 7 * k;
    for (int x : {0, 1, 2})
      for (int y : {3, 4}) {
        Cube c = Cube::one()
                     .with_literal(base + x, true)
                     .with_literal(base + y, true)
                     .with_literal(base + 5, true);
        f.add(c);
      }
    f.add(Cube::literal(base + 6, true));
  }
  for (auto _ : state) benchmark::DoNotOptimize(all_kernels(f));
}
BENCHMARK(BM_Kernels)->DenseRange(1, 3);

void BM_Regions(benchmark::State& state) {
  const StateGraph sg =
      bench::make_combo(static_cast<int>(state.range(0)), 3).to_state_graph();
  const int d = sg.find_signal("d");
  for (auto _ : state)
    benchmark::DoNotOptimize(excitation_regions(sg, Event{d, true}));
  state.counters["states"] = static_cast<double>(sg.num_states());
}
BENCHMARK(BM_Regions)->DenseRange(2, 6, 2);

void BM_SiVerify(benchmark::State& state) {
  const StateGraph sg =
      bench::make_parallelizer(static_cast<int>(state.range(0)))
          .to_state_graph();
  const Netlist netlist = synthesize_all(sg);
  for (auto _ : state)
    benchmark::DoNotOptimize(verify_speed_independence(netlist));
  state.counters["states"] = static_cast<double>(sg.num_states());
}
BENCHMARK(BM_SiVerify)->DenseRange(2, 6, 2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
