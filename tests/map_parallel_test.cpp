// Parallel candidate resynthesis (MapperOptions::threads) must be
// bit-identical to the serial loop: every candidate evaluation reads only
// the current (const) SG, the evaluated set is the first max_full_evals
// verifying candidates in rank order, and the winner is chosen in candidate
// order regardless of worker schedule.  Pinned over the Table-1 corpus
// (CSC-resolved through the Flow engine) and directly on the generator
// families at 1/2/4/N threads.  The bounded resynthesis and the reuse of
// syntheses across stages must not change a bit either: the mapped
// netlist equals a fresh synthesis of the mapped SG, a Flow that hands the
// synth stage's syntheses to the mapper matches a direct mapper call, the
// generator families keep the Verilog of the unbounded loop, and 24 random
// STGs keep the Verilog of the rank-order search.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "benchlib/generators.hpp"
#include "benchlib/random_stg.hpp"
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

TEST(MapParallel, RandomStgsKeepTheirVerilog) {
  // Digests of the Verilog the rank-order search (before candidates were
  // resynthesized best-first) mapped these random STGs to, at i=2 and i=3.
  // The search order must not move a bit, at one map thread or four.  Seed
  // 10 is not implementable at i=2; its digest is the netlist of the last
  // committed revision.
  const struct {
    std::uint64_t seed;
    const char* verilog_fnv64[2];
  } kDigests[] = {
      {1, {"6a16af910dbd0fa9", "6a16af910dbd0fa9"}},
      {2, {"41c65c58a8ef9e59", "0cb840faeda9140a"}},
      {3, {"2482dd7cb3be37b7", "538745bc8ebe5efe"}},
      {4, {"b7cdc7a3b86e7534", "458a5d26d4cb306d"}},
      {5, {"6006a37add55c1e5", "ce67368e553b6b64"}},
      {6, {"4ef3fae8bcbd4bd1", "4ef3fae8bcbd4bd1"}},
      {7, {"348868642868684b", "c9ece0b5104d81ed"}},
      {8, {"809c1206c697497e", "447d8654f53cc1b4"}},
      {9, {"1c9e11d86a6eeb51", "83ef10d08907cd80"}},
      {10, {"67249d139c2cd8d6", "67249d139c2cd8d6"}},
      {11, {"9903643a98b9ef88", "4d14ba48ff615893"}},
      {12, {"1f5ba19784fea7b9", "1f5ba19784fea7b9"}},
      {13, {"191695f4f1e02b37", "191695f4f1e02b37"}},
      {14, {"abb77a3145f34a67", "abb77a3145f34a67"}},
      {15, {"35e31a44338ed168", "35e31a44338ed168"}},
      {16, {"1ee2d7b94eed5b94", "ef14fd265bba3ec4"}},
      {17, {"c8b023a738ae80a9", "78f23616c8132e0d"}},
      {18, {"cc76874ce1365993", "6b9605dd17cd057c"}},
      {19, {"74bf4e6814f517ea", "74bf4e6814f517ea"}},
      {20, {"f7835a738220e2c1", "f7835a738220e2c1"}},
      {21, {"3ea1470dc77fac33", "5f4659933c65ae7a"}},
      {22, {"61e2b2ceca899e03", "61e2b2ceca899e03"}},
      {23, {"cfdf4cf474652fe1", "cfdf4cf474652fe1"}},
      {24, {"9844500ec335b319", "090037b56741b44a"}},
  };
  for (const auto& want : kDigests) {
    const std::string name = "random" + std::to_string(want.seed);
    const StateGraph sg = bench::make_random_stg(want.seed).to_state_graph();
    for (const int max_literals : {2, 3}) {
      for (const int threads : {1, 4}) {
        MapperOptions opts;
        opts.library.max_literals = max_literals;
        opts.threads = threads;
        const MapResult result = technology_map(sg, opts);
        const std::string label = name + " at i=" +
                                  std::to_string(max_literals) + ", " +
                                  std::to_string(threads) + " map-threads";
        EXPECT_EQ(result.implementable, want.seed != 10 || max_literals != 2)
            << label;
        EXPECT_EQ(
            fnv1a64_hex(write_verilog_string(result.build_netlist(), name)),
            want.verilog_fnv64[max_literals - 2])
            << label;
      }
    }
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
