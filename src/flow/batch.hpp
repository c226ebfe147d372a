#pragma once
// Parallel batch driver: run the full staged flow over many specifications
// on a thread pool and aggregate the per-spec reports into one JSON
// document (`sitm batch`).
//
// Two levels of parallelism compose: the batch runs whole flows
// concurrently (one spec per worker, a parallel_for of util/scheduler.hpp
// on the shared pool — the calling thread participates as a worker), and
// each flow's synth and map stages may fork further loops onto the same
// pool (McOptions::threads, MapperOptions::threads).  Results are returned
// in input order regardless of scheduling — every worker writes only its
// own index's slot, so the aggregate is bit-identical at any thread count
// — and a failing spec is recorded in its report instead of aborting the
// batch.
//
// Resource governance: with `item_deadline_ms` set, every item runs under
// its own RunGuard with that deadline, and a watchdog thread additionally
// cancels items that overrun it (covering code that blocks without polling
// the guard); either way the overdue item is marked failure_kind
// `deadline`.  `retry_degraded` re-runs a budget/deadline-failed item once
// under the kDegrade policy (fresh deadline window) so a partial result can
// still be salvaged.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flow/flow.hpp"

namespace sitm {

struct BatchOptions {
  /// Options for each per-spec flow.
  FlowOptions flow;
  /// Concurrent flows.  1 = serial, 0 = one per hardware core.
  int threads = 1;
  /// Per-item wall-clock deadline; 0 = none.  Applied through a per-item
  /// RunGuard (cooperative) and the watchdog (cancel from outside), so an
  /// overdue item ends as failure_kind `deadline` instead of stalling the
  /// batch indefinitely.
  double item_deadline_ms = 0;
  /// Retry a budget/deadline/cancelled item once with FlowOptions::on_budget
  /// = kDegrade and a fresh deadline window.
  bool retry_degraded = false;
  /// Called after each spec finishes (from worker threads, serialized by
  /// the driver) — progress reporting for the CLI.
  std::function<void(const FlowReport&)> on_report;
};

struct BatchItem {
  std::string label;  ///< file path or suite benchmark name
  FlowReport report;
  int attempts = 1;  ///< 2 when retry_degraded re-ran the item
};

struct BatchResult {
  std::vector<BatchItem> items;  ///< input order
  int num_ok = 0;
  int num_failed = 0;
  double total_ms = 0;
  /// Scheduler observability (informational; never affects the reports):
  /// worker count the batch resolved to, and the shared pool's steals
  /// (jobs run by a worker other than the deque they were submitted to)
  /// over the batch.
  int workers = 1;
  std::uint64_t steals = 0;

  bool all_ok() const { return num_failed == 0; }
  /// Aggregate document: batch totals plus every per-spec FlowReport.
  Json to_json() const;
};

/// All .g/.sg files directly under `dir`, sorted by name.  Throws
/// sitm::Error when `dir` is not a directory.
std::vector<std::string> collect_spec_files(const std::string& dir);

/// Run the flow over explicit spec files.
BatchResult run_batch_files(const std::vector<std::string>& paths,
                            const BatchOptions& opts = {});

/// Run the flow over the named Table-1 suite benchmarks (all of them when
/// `names` is empty).
BatchResult run_batch_suite(const std::vector<std::string>& names = {},
                            const BatchOptions& opts = {});

}  // namespace sitm
