// Parallel candidate resynthesis (MapperOptions::threads) must be
// bit-identical to the serial loop: every candidate evaluation reads only
// the current (const) SG, the evaluated set is the first max_full_evals
// verifying candidates in rank order, and the winner is chosen in candidate
// order regardless of worker schedule.  Pinned over the Table-1 corpus
// (CSC-resolved through the Flow engine) and directly on the generator
// families at 1/2/4/N threads.  The bounded resynthesis and the reuse of
// syntheses across stages must not change a bit either: the mapped
// netlist equals a fresh synthesis of the mapped SG, a Flow that hands the
// synth stage's syntheses to the mapper matches a direct mapper call, and
// the generator families keep the Verilog of the unbounded loop.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "benchlib/generators.hpp"
#include "benchlib/suite.hpp"
#include "core/mapper.hpp"
#include "flow/flow.hpp"
#include "netlist/writers.hpp"
#include "stg/stg.hpp"

namespace sitm {
namespace {

std::string fnv1a64_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Spec corpus_spec(const std::string& name) {
  Spec spec;
  spec.name = name;
  spec.format = SpecFormat::kG;
  spec.stg = bench::suite_benchmark(name).stg;
  return spec;
}

/// The CSC-resolved SG of a corpus spec (the map stage's input).
StateGraph resolved_corpus_sg(const std::string& name) {
  FlowOptions front;
  front.stop_after = Stage::kCsc;
  Flow flow(front);
  const FlowReport report = flow.run_spec(corpus_spec(name));
  EXPECT_TRUE(report.ok) << name << ": " << report.failure;
  return *flow.context().sg;
}

/// Everything observable about a map-stage run that must not depend on the
/// thread count.
struct MapFingerprint {
  bool ok = false;
  std::string netlist;
  int signals_inserted = 0;
  long candidates_planned = 0;
  long resyntheses = 0;
  std::size_t states = 0;
  std::vector<std::string> step_signals;
  std::vector<Cover> step_divisors;

  bool operator==(const MapFingerprint&) const = default;
};

MapFingerprint fingerprint_of(const MapResult& result) {
  MapFingerprint fp;
  fp.ok = result.implementable;
  fp.signals_inserted = result.signals_inserted;
  fp.candidates_planned = result.candidates_planned;
  fp.resyntheses = result.resyntheses;
  fp.states = result.sg ? result.sg->num_states() : 0;
  for (const auto& step : result.steps) {
    fp.step_signals.push_back(step.new_signal);
    fp.step_divisors.push_back(step.divisor);
  }
  if (result.implementable) fp.netlist = result.build_netlist().to_string();
  return fp;
}

TEST(MapParallel, CorpusBitIdenticalAcrossThreadCounts) {
  for (const auto& name : bench::suite_names()) {
    // The corpus includes CSC-violating specs; run the flow front half
    // (reachability + csc) once, then map the resolved SG directly.
    const StateGraph sg = resolved_corpus_sg(name);
    for (const int max_literals : {2, 3}) {
      MapperOptions serial;
      serial.library.max_literals = max_literals;
      serial.threads = 1;
      const MapFingerprint ref = fingerprint_of(technology_map(sg, serial));
      EXPECT_TRUE(ref.ok) << name << " at i=" << max_literals;

      for (const int threads : {2, 4, 0}) {
        MapperOptions opts = serial;
        opts.threads = threads;
        EXPECT_EQ(fingerprint_of(technology_map(sg, opts)), ref)
            << name << " at i=" << max_literals << ", " << threads
            << " map-threads";
      }
    }
  }
}

TEST(MapParallel, StoredSynthesesBuildTheResynthesizedNetlist) {
  // build_netlist assembles the mapper's stored syntheses instead of
  // synthesizing the final SG again; both must give the same netlist.  A
  // mismatching McOptions falls back to a real resynthesis.
  for (const auto& name : bench::suite_names()) {
    const StateGraph sg = resolved_corpus_sg(name);
    MapperOptions opts;
    opts.library.max_literals = 2;
    const MapResult result = technology_map(sg, opts);
    ASSERT_TRUE(result.implementable) << name;
    EXPECT_EQ(result.build_netlist().to_string(),
              synthesize_all(*result.sg).to_string())
        << name;
    McOptions complex_gates;
    complex_gates.architecture = Architecture::kComplexGate;
    EXPECT_EQ(result.build_netlist(complex_gates).to_string(),
              synthesize_all(*result.sg, complex_gates).to_string())
        << name;
  }
}

TEST(MapParallel, FlowReusingSynthStageMatchesDirectMapping) {
  // With the synth stage on and equal synthesis options, the map stage
  // starts from the synth stage's syntheses.  Its report and Verilog must
  // match a direct technology_map call on the same SG, and a flow that
  // skips the synth stage (nothing to reuse) must match as well.
  for (const std::string name : {"vbe10b", "mr0", "pe-send-ifc", "wrdatab"}) {
    FlowOptions opts;
    opts.mapper.library.max_literals = 2;
    opts.capture_emitted = true;
    Flow flow(opts);
    const FlowReport report = flow.run_spec(corpus_spec(name));
    ASSERT_TRUE(report.ok) << name << ": " << report.failure;
    const FlowContext& ctx = flow.context();
    ASSERT_TRUE(ctx.synth_sg);

    const MapResult direct = technology_map(*ctx.synth_sg, opts.mapper);
    const StageReport& map = report.stage(Stage::kMap);
    EXPECT_EQ(map.metric_value("candidates_planned"),
              static_cast<double>(direct.candidates_planned))
        << name;
    EXPECT_EQ(map.metric_value("resyntheses"),
              static_cast<double>(direct.resyntheses))
        << name;
    EXPECT_EQ(map.metric_value("resyntheses_pruned"),
              static_cast<double>(direct.resyntheses_pruned))
        << name;
    EXPECT_EQ(map.metric_value("signals_inserted"),
              static_cast<double>(direct.signals_inserted))
        << name;
    EXPECT_EQ(ctx.emitted_verilog,
              write_verilog_string(direct.build_netlist(opts.mapper.mc),
                                   ctx.name))
        << name;

    // The reuse is real: a flow stopped after map charges its guard for
    // the front half plus the mapper's work, minus the first synthesis,
    // which the synth stage already paid for (one unit per signal).
    const auto work_of = [&](std::optional<Stage> stop_after) {
      FlowOptions governed = opts;
      governed.stop_after = stop_after;
      governed.guard = std::make_shared<RunGuard>();
      Flow run(governed);
      EXPECT_TRUE(run.run_spec(corpus_spec(name)).ok) << name;
      return governed.guard->work();
    };
    RunGuard direct_guard;
    technology_map(*ctx.synth_sg, opts.mapper, &direct_guard);
    const auto synth_signals = static_cast<std::uint64_t>(
        report.stage(Stage::kSynth).metric_value("signals").value_or(0));
    EXPECT_EQ(work_of(Stage::kMap), work_of(Stage::kDecomp) +
                                        direct_guard.work() - synth_signals)
        << name;

    FlowOptions no_synth = opts;
    no_synth.set_skip(Stage::kSynth);
    Flow fresh(no_synth);
    const FlowReport fresh_report = fresh.run_spec(corpus_spec(name));
    ASSERT_TRUE(fresh_report.ok) << name << ": " << fresh_report.failure;
    EXPECT_EQ(fresh_report.stage(Stage::kMap).metrics, map.metrics) << name;
    EXPECT_EQ(fresh.context().emitted_verilog, ctx.emitted_verilog) << name;
  }
}

TEST(MapParallel, GeneratorFamiliesKeepTheirVerilog) {
  // Digests of the Verilog the unbounded, resynthesize-everything mapper
  // produced for these instances (i=2).
  const struct {
    const char* name;
    StateGraph sg;
    const char* verilog_fnv64;
  } workloads[] = {
      {"parallelizer5", bench::make_parallelizer(5).to_state_graph(),
       "372aa2b6d06d6914"},
      {"combo3x3", bench::make_combo(3, 3).to_state_graph(),
       "598dc2f5372d81c9"},
  };
  for (const auto& w : workloads) {
    MapperOptions opts;
    opts.library.max_literals = 2;
    const MapResult result = technology_map(w.sg, opts);
    ASSERT_TRUE(result.implementable) << w.name;
    EXPECT_EQ(fnv1a64_hex(write_verilog_string(result.build_netlist(), w.name)),
              w.verilog_fnv64)
        << w.name;
  }
}

TEST(MapParallel, GeneratorFamiliesBitIdentical) {
  // Heavier multi-insertion instances than most of the corpus: the
  // parallelizer join and the mixed combo family.
  const StateGraph workloads[] = {
      bench::make_parallelizer(5).to_state_graph(),
      bench::make_combo(3, 3).to_state_graph(),
  };
  for (const StateGraph& sg : workloads) {
    MapperOptions serial;
    serial.library.max_literals = 2;
    const MapFingerprint ref = fingerprint_of(technology_map(sg, serial));
    for (const int threads : {2, 4, 0}) {
      MapperOptions opts = serial;
      opts.threads = threads;
      EXPECT_EQ(fingerprint_of(technology_map(sg, opts)), ref)
          << threads << " map-threads";
    }
  }
}

TEST(MapParallel, TightEvalCapKeepsTheSerialEvaluationSet) {
  // With a cap smaller than the candidate list the parallel pre-check must
  // still evaluate exactly the first cap verifying candidates, not the
  // first cap to finish.
  const StateGraph sg = bench::make_parallelizer(4).to_state_graph();
  for (const int cap : {1, 2, 3}) {
    MapperOptions serial;
    serial.library.max_literals = 2;
    serial.max_full_evals = cap;
    const MapFingerprint ref = fingerprint_of(technology_map(sg, serial));
    for (const int threads : {2, 4}) {
      MapperOptions opts = serial;
      opts.threads = threads;
      EXPECT_EQ(fingerprint_of(technology_map(sg, opts)), ref)
          << "cap " << cap << " at " << threads << " map-threads";
    }
  }
}

}  // namespace
}  // namespace sitm
