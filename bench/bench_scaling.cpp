// Scaling study (supporting the paper's efficiency claim, Section 5):
// mapper runtime as a function of specification size, measured with
// google-benchmark over the parametric families.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "benchlib/generators.hpp"
#include "boolf/bitslice.hpp"
#include "serve/server.hpp"
#include "stg/g_io.hpp"
#include "boolf/minimize.hpp"
#include "core/csc.hpp"
#include "core/insertion.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "flow/flow.hpp"
#include "mlogic/divisors.hpp"
#include "netlist/si_verify.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "stg/stg.hpp"
#include "util/run_guard.hpp"

namespace {

using namespace sitm;

void BM_Reachability(benchmark::State& state) {
  const Stg stg = bench::make_parallelizer(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stg.to_state_graph());
  }
  state.counters["states"] = static_cast<double>(
      stg.to_state_graph().num_states());
}
BENCHMARK(BM_Reachability)->DenseRange(2, 10, 2);

// RunGuard overhead on the reachability hot loop (last arg: 0 = governed
// by a guard with generous limits, 1 = ungoverned nullptr path).  The
// governed loop pays one relaxed fetch_add + compare per discovered state
// and an amortized clock read every 1024 work units; /0 vs /1 real_time is
// the whole cost of resource governance on the tightest loop we have.
void BM_GuardedReachability(benchmark::State& state) {
  const Stg stg = bench::make_parallelizer(static_cast<int>(state.range(0)));
  const bool governed = state.range(1) == 0;
  for (auto _ : state) {
    RunGuard guard;
    guard.set_work_budget(std::uint64_t{1} << 40);
    guard.set_deadline_ms(3.6e6);  // one hour: never trips, always armed
    benchmark::DoNotOptimize(
        stg.to_state_graph(Stg::kDefaultMaxStates, governed ? &guard : nullptr));
  }
  state.counters["states"] =
      static_cast<double>(stg.to_state_graph().num_states());
}
BENCHMARK(BM_GuardedReachability)->Args({8, 0})->Args({8, 1});

void BM_SynthesizeAll(benchmark::State& state) {
  const StateGraph sg =
      bench::make_parallelizer(static_cast<int>(state.range(0)))
          .to_state_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize_all(sg));
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
}
BENCHMARK(BM_SynthesizeAll)->DenseRange(2, 8, 2);

// Parallel per-signal synthesis: the BM_SynthesizeAll workload at the
// largest size, swept over McOptions::threads.  The output is bit-identical
// to the serial loop at every thread count; the wall-clock ratio against
// /1 is the ROADMAP's "parallel synthesize_all" speedup.
void BM_SynthesizeAllParallel(benchmark::State& state) {
  const StateGraph sg = bench::make_parallelizer(8).to_state_graph();
  McOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synthesize_all(sg, opts));
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SynthesizeAllParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The staged Flow engine end to end (load metrics -> reachability ->
// properties -> csc -> synth -> decomp -> map -> verify): what one spec
// costs through the orchestration layer, i.e. BM_MapParallelizer plus the
// property checks and gate-level verification it leaves out.
void BM_FlowMapVerify(benchmark::State& state) {
  const Stg stg = bench::make_parallelizer(static_cast<int>(state.range(0)));
  FlowOptions opts;
  opts.mapper.library.max_literals = 2;
  std::size_t states = 0;
  for (auto _ : state) {
    Spec spec;
    spec.name = "parallelizer";
    spec.stg = stg;
    Flow flow(opts);
    const FlowReport report = flow.run_spec(std::move(spec));
    states = flow.context().sg->num_states();
    benchmark::DoNotOptimize(report);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_FlowMapVerify)->DenseRange(2, 6, 2)->Unit(benchmark::kMillisecond);

// The output-side gate in isolation: nlint + the equivalence proof over an
// already-synthesized netlist, as a function of specification size.
void BM_CheckEquivalence(benchmark::State& state) {
  FlowOptions synth_opts;
  synth_opts.mapper.library.max_literals = 2;
  synth_opts.stop_after = Stage::kMap;
  Flow flow(synth_opts);
  Spec spec;
  spec.name = "parallelizer";
  spec.stg = bench::make_parallelizer(static_cast<int>(state.range(0)));
  const FlowReport synth = flow.run_spec(std::move(spec));
  if (!synth.ok || !flow.context().netlist) {
    state.SkipWithError("synthesis failed");
    return;
  }
  const Netlist& netlist = *flow.context().netlist;
  std::size_t reach = 0;
  for (auto _ : state) {
    const NlintReport nlint = nlint_netlist(netlist);
    const EquivReport equiv = check_equivalence(netlist);
    reach = equiv.reach_states;
    benchmark::DoNotOptimize(nlint);
    benchmark::DoNotOptimize(equiv);
  }
  state.counters["reach_states"] = static_cast<double>(reach);
}
BENCHMARK(BM_CheckEquivalence)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

/// Verify alone on the csc_rings netlists: make_csc_ring(n) through csc
/// resolution and map at i=2 once, then only the composite exploration is
/// timed.  Composite states grow about 6x per segment; at ring5 (518,144
/// states) the visited set outgrows the cache.
void BM_SiVerifyCscRing(benchmark::State& state) {
  FlowOptions opts;
  opts.stop_after = Stage::kMap;
  opts.mapper.library.max_literals = 2;
  Flow flow(opts);
  Spec spec;
  spec.name = "ring" + std::to_string(state.range(0));
  spec.stg = bench::make_csc_ring(static_cast<int>(state.range(0)));
  const FlowReport report = flow.run_spec(std::move(spec));
  if (!report.ok || !flow.context().netlist) {
    state.SkipWithError(report.failure.c_str());
    return;
  }
  const Netlist& netlist = *flow.context().netlist;
  std::size_t states = 0;
  for (auto _ : state) {
    const SiVerifyResult result = verify_speed_independence(netlist);
    benchmark::DoNotOptimize(result.ok);
    states = result.num_states;
  }
  state.counters["composite_states"] = static_cast<double>(states);
}
BENCHMARK(BM_SiVerifyCscRing)->DenseRange(3, 5)->Unit(benchmark::kMillisecond);

void BM_MapParallelizer(benchmark::State& state) {
  const StateGraph sg =
      bench::make_parallelizer(static_cast<int>(state.range(0)))
          .to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  int inserted = 0;
  for (auto _ : state) {
    const MapResult r = technology_map(sg, opts);
    inserted = r.signals_inserted;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
  state.counters["inserted"] = inserted;
}
BENCHMARK(BM_MapParallelizer)->DenseRange(2, 7, 1)->Unit(benchmark::kMillisecond);

void BM_MapCombo(benchmark::State& state) {
  const StateGraph sg = bench::make_combo(static_cast<int>(state.range(0)),
                                          static_cast<int>(state.range(1)))
                            .to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(technology_map(sg, opts));
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
}
BENCHMARK(BM_MapCombo)
    ->Args({2, 2})
    ->Args({3, 3})
    ->Args({4, 4})
    ->Args({5, 3})
    ->Unit(benchmark::kMillisecond);

void BM_MapSeqChain(benchmark::State& state) {
  const StateGraph sg =
      bench::make_seq_chain(static_cast<int>(state.range(0))).to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(technology_map(sg, opts));
  }
}
BENCHMARK(BM_MapSeqChain)->DenseRange(2, 10, 2)->Unit(benchmark::kMillisecond);

// Inner loop of the minimizer in isolation: expand every on-minterm of the
// parallelizer's done-signal next-state function against the off-set through
// the bit-sliced engine, including the per-call off-set transpose (this is
// how minimize_onoff amortizes it).  next_value splits the states, so no
// on-minterm is also an off-minterm.
void BM_ExpandMinterm(benchmark::State& state) {
  const StateGraph sg =
      bench::make_parallelizer(static_cast<int>(state.range(0)))
          .to_state_graph();
  const int sig = sg.noninput_signals().back();
  std::vector<std::uint64_t> on, off;
  sg.reachable().for_each([&](std::size_t s) {
    const auto id = static_cast<StateId>(s);
    (next_value(sg, id, sig) ? on : off).push_back(sg.code(id));
  });
  std::vector<int> order(static_cast<std::size_t>(sg.num_signals()));
  std::iota(order.begin(), order.end(), 0);
  for (auto _ : state) {
    const BitSlicedOffSet sliced(off, sg.num_signals());
    for (const auto code : on)
      benchmark::DoNotOptimize(expand_on_minterm(code, sliced, order));
  }
  state.counters["on"] = static_cast<double>(on.size());
  state.counters["off"] = static_cast<double>(off.size());
}
BENCHMARK(BM_ExpandMinterm)->DenseRange(4, 8, 2);

// Greedy irredundant selection in isolation.  The candidate pool is what
// minimize_onoff's refinement passes really produce — every on-minterm of
// the parallelizer's done-signal function expanded under several rotated
// variable orders — so the selection loop sees many overlapping cubes per
// minterm, the regime where an O(cubes) rescan per pick would dominate.
void BM_Irredundant(benchmark::State& state) {
  const StateGraph sg = bench::make_parallelizer(8).to_state_graph();
  const int sig = sg.noninput_signals().back();
  std::vector<std::uint64_t> on, off;
  sg.reachable().for_each([&](std::size_t s) {
    const auto id = static_cast<StateId>(s);
    (next_value(sg, id, sig) ? on : off).push_back(sg.code(id));
  });
  const BitSlicedOffSet sliced(off, sg.num_signals());
  std::vector<int> order(static_cast<std::size_t>(sg.num_signals()));
  std::iota(order.begin(), order.end(), 0);
  std::vector<Cube> cubes;
  for (int rot = 0; rot < 4; ++rot) {
    std::rotate(order.begin(), order.begin() + 1, order.end());
    const std::vector<int> reversed(order.rbegin(), order.rend());
    for (const auto code : on) {
      cubes.push_back(expand_on_minterm(code, sliced, order));
      cubes.push_back(expand_on_minterm(code, sliced, reversed));
    }
  }
  std::sort(cubes.begin(), cubes.end());
  cubes.erase(std::unique(cubes.begin(), cubes.end()), cubes.end());

  for (auto _ : state) {
    benchmark::DoNotOptimize(irredundant(cubes, on));
  }
  state.counters["cubes"] = static_cast<double>(cubes.size());
  state.counters["on"] = static_cast<double>(on.size());
}
BENCHMARK(BM_Irredundant)->Unit(benchmark::kMicrosecond);

// The mapper's candidate resynthesis loop swept over
// MapperOptions::threads: each candidate is an independent full
// resynthesis over the read-only SG, evaluated on the shared pool and
// committed in candidate order — the mapped netlist is bit-identical at
// every thread count, so the /1 vs /4 ratio is pure parallel speedup (on a
// single-core container the sweep degenerates to serial timings).
void BM_MapParallelResynth(benchmark::State& state) {
  const StateGraph sg = bench::make_parallelizer(6).to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  opts.threads = static_cast<int>(state.range(0));
  int inserted = 0;
  for (auto _ : state) {
    const MapResult r = technology_map(sg, opts);
    inserted = r.signals_inserted;
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["inserted"] = inserted;
}
BENCHMARK(BM_MapParallelResynth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Insertion planning in isolation: every ordered (e1, e2) switching-region
// pair of a conflicted diamond ring — exactly resolve_csc's per-iteration
// candidate planning, on the concurrency-rich workload where planning is
// diamond-bound (the plain csc_ring is diamond-free, so there is nothing to
// amortize there).  The arg is the fork width; one shared InsertionPlanner
// reuses the diamond enumeration and region memos across pairs.
void BM_PlanInsertion(benchmark::State& state) {
  const StateGraph sg =
      bench::make_csc_diamond_ring(3, static_cast<int>(state.range(0)))
          .to_state_graph();
  const std::vector<DynBitset> region = all_switching_regions(sg);
  std::vector<const DynBitset*> occupied;
  for (const auto& r : region)
    if (r.any()) occupied.push_back(&r);

  long planned = 0;
  for (auto _ : state) {
    planned = 0;
    InsertionPlanner planner(sg);
    for (const DynBitset* r1 : occupied) {
      for (const DynBitset* r2 : occupied) {
        if (r1 == r2) continue;
        auto plan = planner.plan_state_latch(*r1, *r2);
        planned += plan.has_value();
        benchmark::DoNotOptimize(plan);
      }
    }
  }
  state.counters["pairs"] =
      static_cast<double>(occupied.size() * (occupied.size() - 1));
  state.counters["planned"] = static_cast<double>(planned);
}
BENCHMARK(BM_PlanInsertion)->Arg(4)->Arg(5)->Unit(benchmark::kMillisecond);

// One resolve_csc candidate round's insertion cost in isolation: every
// planned (e1, e2) latch of the conflicted diamond ring, either materialized
// (engine 1: insert_signal — full graph copy + prune_unreachable + copy-map
// remap, the cost every scored candidate used to pay) or scored lazily from
// the copy maps (engine 0: InsertionPreview — one reachability walk over the
// implicit copy product).  Arg 0 is the fork width.  Both agree exactly on
// every query resolve_csc asks (pinned by tests/perf_equiv_test.cpp); the
// /0 vs /1 ratio is the per-candidate win behind winner-only
// materialization.
void BM_InsertSignal(benchmark::State& state) {
  const StateGraph sg =
      bench::make_csc_diamond_ring(4, static_cast<int>(state.range(0)))
          .to_state_graph();
  const std::vector<DynBitset> region = all_switching_regions(sg);
  std::vector<const DynBitset*> occupied;
  for (const auto& r : region)
    if (r.any()) occupied.push_back(&r);
  InsertionPlanner planner(sg);
  std::vector<InsertionPlan> plans;
  for (const DynBitset* r1 : occupied)
    for (const DynBitset* r2 : occupied) {
      if (r1 == r2) continue;
      if (auto plan = planner.plan_state_latch(*r1, *r2))
        plans.push_back(std::move(*plan));
    }

  const bool materialize = state.range(1) != 0;
  std::size_t states = 0;
  for (auto _ : state) {
    states = 0;
    for (const InsertionPlan& plan : plans) {
      if (materialize) {
        InsertionCopies copies;
        const StateGraph next = insert_signal(sg, plan, "bz0", &copies);
        states += next.num_states();
      } else {
        states += InsertionPreview(sg, plan).num_states();
      }
    }
    benchmark::DoNotOptimize(states);
  }
  state.counters["plans"] = static_cast<double>(plans.size());
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_InsertSignal)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Unit(benchmark::kMillisecond);

// One mapper iteration's candidate checks in isolation (args: parallelizer
// segments, engine): every divisor plan of every cover of the parallelizer,
// judged the way technology_map judges it before resynthesis.  Engine 0 is
// the copy product: PreviewVerifier plus ParentBounds::after.  Engine 1 is
// the built graph: insert_signal, the property checks on the result
// (consistency, speed independence, CSC, and persistency of the signals
// persistent before), then cover_lower_bounds.  Both engines give the same
// verdicts and bounds (tests/perf_equiv_test.cpp); each builds its shared
// per-iteration state once per pass, as the mapper does.
void BM_MapCandidateCheck(benchmark::State& state) {
  const StateGraph sg =
      bench::make_parallelizer(static_cast<int>(state.range(0)))
          .to_state_graph();
  std::vector<SignalSynthesis> syntheses;
  synthesize_all(sg, {}, &syntheses);
  InsertionPlanner planner(sg);
  std::vector<InsertionPlan> plans;
  for (const SignalSynthesis& s : syntheses)
    for (const EventCover* cover : {&s.set, &s.reset})
      for (const Cover& f : generate_divisors(cover->cover))
        if (auto plan = planner.plan(f)) plans.push_back(std::move(*plan));

  const bool build = state.range(1) != 0;
  long verified = 0;
  for (auto _ : state) {
    verified = 0;
    if (build) {
      std::vector<int> persistent;
      for (int sig = 0; sig < sg.num_signals(); ++sig)
        if (check_persistency(sg, {sig})) persistent.push_back(sig);
      for (const InsertionPlan& plan : plans) {
        const StateGraph next = insert_signal(sg, plan, "bz0");
        if (!check_consistency(next) || !check_speed_independence(next) ||
            !check_csc(next) || !check_persistency(next, persistent))
          continue;
        ++verified;
        benchmark::DoNotOptimize(cover_lower_bounds(next));
      }
    } else {
      const PreviewVerifier verifier(sg, /*require_csc=*/true);
      const ParentBounds parent(sg);
      for (const InsertionPlan& plan : plans) {
        const InsertionPreview preview(sg, plan);
        if (!verifier.verify(preview)) continue;
        ++verified;
        benchmark::DoNotOptimize(parent.after(preview));
      }
    }
  }
  state.counters["plans"] = static_cast<double>(plans.size());
  state.counters["verified"] = static_cast<double>(verified);
}
BENCHMARK(BM_MapCandidateCheck)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({6, 0})
    ->Args({6, 1})
    ->Unit(benchmark::kMicrosecond);

// resolve_csc end to end on the diamond ring (args: segments, width): shared
// incremental planner, copy-map scoring, winner-only materialization and a
// memoized persistency baseline.
void BM_ResolveCscIncremental(benchmark::State& state) {
  const StateGraph sg =
      bench::make_csc_diamond_ring(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)))
          .to_state_graph();
  int inserted = 0;
  for (auto _ : state) {
    const CscResult r = resolve_csc(sg);
    inserted = r.signals_inserted;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
  state.counters["inserted"] = inserted;
}
BENCHMARK(BM_ResolveCscIncremental)
    ->Args({5, 4})
    ->Args({4, 5})
    ->Unit(benchmark::kMillisecond);

// CSC resolution on the conflicted ring family.  Default options: exhaustive
// candidate order (class-local conflict recount, deferred verification).
void BM_ResolveCsc(benchmark::State& state) {
  const StateGraph sg =
      bench::make_csc_ring(static_cast<int>(state.range(0))).to_state_graph();
  int inserted = 0;
  for (auto _ : state) {
    const CscResult r = resolve_csc(sg);
    inserted = r.signals_inserted;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
  state.counters["inserted"] = inserted;
}
BENCHMARK(BM_ResolveCsc)->DenseRange(2, 6, 1)->Unit(benchmark::kMillisecond);

// Same workload with candidate ranking: only the 16 best-scoring (e1, e2)
// pairs per iteration pay for the insert/verify round trip.
void BM_ResolveCscTopK(benchmark::State& state) {
  const StateGraph sg =
      bench::make_csc_ring(static_cast<int>(state.range(0))).to_state_graph();
  CscOptions opts;
  opts.rank_top_k = 16;
  int inserted = 0;
  for (auto _ : state) {
    const CscResult r = resolve_csc(sg, opts);
    inserted = r.signals_inserted;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(sg.num_states());
  state.counters["inserted"] = inserted;
}
BENCHMARK(BM_ResolveCscTopK)->DenseRange(2, 6, 1)->Unit(benchmark::kMillisecond);

// The serve front-end's hot path.  Both benchmarks push the same request
// line through ServeEngine::handle_line; Cold clears the cache every
// iteration so each request re-runs the full flow (parse, key, schedule,
// synthesize, serialize), Warm primes once and then answers from the
// content-addressed cache (parse, key, lookup, splice).  Cold/Warm is the
// serve speedup; run_bench.sh gates it at >= 10x via compare_bench.py
// --speedup, and tests/serve_test.cpp pins the warm bytes to the cold ones.
std::string serve_request_line() {
  Json req = Json::object();
  req.set("id", Json("bench"));
  req.set("spec", Json(write_g_string(bench::make_parallelizer(4),
                                      "parallelizer")));
  return req.dump(0);
}

void BM_ServeCold(benchmark::State& state) {
  serve::ServeOptions so;
  so.flow.mapper.library.max_literals = 2;
  serve::ServeEngine engine(so);
  const std::string line = serve_request_line();
  for (auto _ : state) {
    state.PauseTiming();
    engine.cache().clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.handle_line(line));
  }
  state.counters["misses"] =
      static_cast<double>(engine.cache().stats().misses);
}
BENCHMARK(BM_ServeCold)->Unit(benchmark::kMillisecond);

void BM_ServeWarm(benchmark::State& state) {
  serve::ServeOptions so;
  so.flow.mapper.library.max_literals = 2;
  serve::ServeEngine engine(so);
  const std::string line = serve_request_line();
  engine.handle_line(line);  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.handle_line(line));
  }
  state.counters["hits"] = static_cast<double>(engine.cache().stats().hits);
}
BENCHMARK(BM_ServeWarm)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
