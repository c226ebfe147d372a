#pragma once
// Shared pieces of the sitm benchmark program: arguments, sample statistics,
// the metric sink, the span recorder, and the flow helpers the workloads
// share.  See perfbench/README.md for the workloads and metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "flow/flow.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Root of the sitm checkout (data/benchmarks, perfbench/golden).
  std::string root = ".";
  /// Directory the traced run writes its span file into.
  std::string spans_dir = ".";
  /// Small fixed-size version of the workload (the benchmark's own test).
  bool reduced = false;
  /// When set, write the table1 golden file here instead of benchmarking.
  std::string write_golden;
};

// ---- sample statistics -------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/// The highest of the percentiles 99, 98, 95, 90, 75 and 50 that has at
/// least `min_beyond` samples above it (failed samples are +inf).
struct Tail {
  double value = 0;
  double percentile = 50;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v, std::size_t min_beyond = 10);

/// Call `f` `repeats` times and return the median wall time in seconds.
template <typename F>
double median_seconds(int repeats, F&& f) {
  std::vector<double> s;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    f();
    s.push_back(ms_between(t0, Clock::now()) / 1000);
  }
  return median(std::move(s));
}

std::uint64_t fnv1a64(std::string_view s);
std::string hex64(std::uint64_t v);

// ---- results -------------------------------------------------------------

/// Metrics in emission order, printed as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  Metrics metrics;
  /// Informational lines printed before the JSON result.
  std::vector<std::string> notes;

  void note(std::string line) { notes.push_back(std::move(line)); }
  /// An output check failed: the run is incorrect.
  void mismatch(const std::string& what);
};

// ---- tracing -------------------------------------------------------------

/// In-memory span recorder.  Spans are recorded from the benchmark's own
/// code around calls into the library; nothing inside libsitm is traced.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Open a span; returns its id (the parent of spans opened under it).
  int open(std::string name, int parent = -1, long request = -1);
  void close(int id);
  /// Record an already-finished span.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, long request = -1);

  std::size_t size() const { return spans_.size(); }
  /// Per span name: count, total and self milliseconds, as note lines.
  std::vector<std::string> summary() const;
  /// Chrome trace-event JSON with each span's self time in its args.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0, end_ms = 0;
    int parent = -1;
    long request = -1;
  };
  std::vector<double> self_ms() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- flows -----------------------------------------------------------------

/// One flow of a sweep: a .g text mapped onto a max_literals library.
struct FlowInput {
  std::string label;  ///< "<spec>/i<N>"
  std::string text;
  int max_literals = 2;
};

/// What the output checks compare.
struct FlowOutcome {
  bool ok = false;
  sitm::FailureKind kind = sitm::FailureKind::kNone;
  std::string failure;
  long literals = 0, c_elements = 0, signals_inserted = 0;
  long csc_inserted = 0;  ///< of signals_inserted, by the csc stage
  std::string verilog_digest;
  bool proven = false;           ///< check stage proved every gate
  bool speed_independent = false;

  bool same_result(const FlowOutcome& o) const {
    return ok == o.ok && literals == o.literals &&
           c_elements == o.c_elements &&
           signals_inserted == o.signals_inserted &&
           verilog_digest == o.verilog_digest;
  }
  std::string describe() const;
};

/// Per-layer accumulator: span milliseconds and counts by metric name.
using Layers = std::map<std::string, double>;

/// The options `sitm batch` runs with (lint and check on, one thread),
/// mapped onto `max_literals` and bounded by a per-flow deadline.
sitm::FlowOptions flow_options(int max_literals, double deadline_ms);

/// Run one flow through `Flow` (tracing off); `wall_ms` is the time of
/// construction plus run.
FlowOutcome run_flow(const FlowInput& in, const sitm::FlowOptions& opts,
                     double* wall_ms);

/// Replay one flow stage by stage through the layers' public entry points,
/// with the options `Flow` uses, recording one span per layer call under
/// `parent` and adding times and counts into `layers`.
FlowOutcome replay_flow(const FlowInput& in, const sitm::FlowOptions& opts,
                        Tracer* tracer, int parent, long request,
                        Layers* layers);

/// Record one served miss as a serve.miss span with serve.queue_wait and
/// serve.flow children, split at `flow_ms` (the report's total_ms) before
/// the response.
void trace_miss(Tracer* tracer, Clock::time_point send, Clock::time_point done,
                double flow_ms, long request);

/// Serve the inputs once cold and once warm through a fresh ServeEngine
/// (closed loop), adding the serve, cache and scheduler layer metrics.
void serve_probe(const std::vector<FlowInput>& inputs, Tracer* tracer,
                 Layers* layers, RunResult* result);

/// Checks every ok flow must pass: check proved every gate, verify
/// reported speed independence.
bool outcome_sound(const FlowOutcome& o);

/// Set every per-layer metric from `layers` (absent ones read 0).
void emit_layer_metrics(const Layers& layers, RunResult* result);
/// Fill the ratio metrics from the final sums.
void derive_layer_ratios(Layers* layers);

// ---- serve protocol ----------------------------------------------------------

/// One synthesis request line as `sitm serve` reads it.
std::string request_line(const std::string& id, const std::string& text,
                         int max_literals, int map_threads);

/// The few response fields the open loop reads without a JSON parse.
struct Peek {
  std::string status;
  bool cached = false;
  double total_ms = 0;       ///< the flow report's total_ms
  std::string failure_kind;  ///< empty unless the flow failed
  std::size_t key_at = std::string::npos;  ///< start of the cached payload
};
Peek peek_response(const std::string& line);
/// Whether two responses carry byte-identical key and result payloads.
bool same_payload(const std::string& a, const Peek& pa, const std::string& b,
                  const Peek& pb);
/// Parse a response's report (and Verilog, when present) into an outcome.
FlowOutcome outcome_of_response(const std::string& line);

// ---- workloads -------------------------------------------------------------

/// The 32 data/benchmarks specs at i=2,3,4 (a small subset when reduced).
std::vector<FlowInput> table1_inputs(const Args& args);
/// The golden table1 outcomes by flow label.
std::map<std::string, FlowOutcome> table1_golden(const Args& args);
/// Record the golden file from the current code (--write-golden).
int write_table1_golden(const Args& args);

RunResult run_table1(const Args& args);
RunResult run_csc_rings(const Args& args);
RunResult run_serve_mix(const Args& args);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
