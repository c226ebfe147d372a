#include "flow/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>

#include "benchlib/suite.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/scheduler.hpp"

namespace sitm {

Json BatchResult::to_json() const {
  Json j = Json::object();
  j.set("specs", static_cast<double>(items.size()));
  j.set("ok", num_ok);
  j.set("failed", num_failed);
  j.set("total_ms", total_ms);
  j.set("workers", workers);
  j.set("steals", steals);
  Json reports = Json::array();
  for (const auto& item : items) {
    Json r = item.report.to_json();
    r.set("label", item.label);
    if (item.attempts > 1) r.set("attempts", item.attempts);
    reports.push(std::move(r));
  }
  j.set("reports", std::move(reports));
  return j;
}

std::vector<std::string> collect_spec_files(const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) throw Error("not a directory: " + dir);
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext == ".g" || ext == ".sg" || ext == ".astg")
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Watchdog slot for one in-flight item; all fields guarded by `m` (the
/// watchdog polls at millisecond granularity, so the lock is uncontended).
struct ItemWatch {
  std::mutex m;
  std::shared_ptr<RunGuard> guard;
  std::chrono::steady_clock::time_point started;
  bool active = false;
  bool overdue = false;
};

bool is_resource_kind(FailureKind kind) {
  return kind == FailureKind::kBudget || kind == FailureKind::kDeadline ||
         kind == FailureKind::kCancelled;
}

/// Run one flow per work item on `threads` workers; `run(i, flow_opts)`
/// must build the item's flow off `flow_opts` (which carries the per-item
/// guard) and return its report.  Input order is preserved by indexing.
BatchResult run_pool(std::vector<BatchItem> items, const BatchOptions& opts,
                     const std::function<FlowReport(
                         std::size_t, const FlowOptions&)>& run) {
  BatchResult result;
  result.items = std::move(items);
  const auto start = std::chrono::steady_clock::now();

  // Watchdog: cancels items still running past their deadline.  The
  // per-item guard's own deadline already stops loops that poll it; the
  // watchdog covers code that blocks without polling, by requesting a
  // cancel the next poll *will* see.  Either path is normalized to
  // failure_kind `deadline` below because the cause is the overrun.
  std::vector<ItemWatch> watch(result.items.size());
  std::atomic<bool> pool_done{false};
  std::thread watchdog;
  if (opts.item_deadline_ms > 0 && !result.items.empty()) {
    watchdog = std::thread([&] {
      while (!pool_done.load(std::memory_order_relaxed)) {
        const auto now = std::chrono::steady_clock::now();
        for (auto& w : watch) {
          std::shared_ptr<RunGuard> overdue_guard;
          {
            const std::lock_guard<std::mutex> lock(w.m);
            if (!w.active || w.overdue) continue;
            const double ms =
                std::chrono::duration<double, std::milli>(now - w.started)
                    .count();
            if (ms <= opts.item_deadline_ms) continue;
            w.overdue = true;
            overdue_guard = w.guard;
          }
          if (overdue_guard) overdue_guard->request_cancel();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::mutex report_mutex;
  // Items never throw out of the body: the Flow captures stage errors in
  // the report, and the catch arms here guard the surroundings (suite
  // lookup, fault sites, non-standard exceptions) so one bad item cannot
  // take down the batch.  Workers claim items one at a time, so skewed
  // item costs stay balanced; each writes only slot i, so results are
  // bit-identical to the serial run at any thread count.
  result.workers = resolve_worker_threads(opts.threads, result.items.size());
  const std::uint64_t steals_before =
      result.workers > 1 ? shared_pool().steals() : 0;
  parallel_for(result.items.size(), opts.threads, [&](std::size_t i) {
    ItemWatch& w = watch[i];
    auto attempt = [&](FlowOptions flow_opts) -> FlowReport {
      flow_opts.guard = std::make_shared<RunGuard>();
      if (opts.item_deadline_ms > 0)
        flow_opts.deadline_ms = opts.item_deadline_ms;
      {
        const std::lock_guard<std::mutex> lock(w.m);
        w.guard = flow_opts.guard;
        w.started = std::chrono::steady_clock::now();
        w.overdue = false;
        w.active = true;
      }
      FlowReport report;
      try {
        fault::hit("batch.item");
        report = run(i, flow_opts);
      } catch (const std::exception& e) {
        report.ok = false;
        report.failure = e.what();
        report.failure_kind = classify_exception(e);
        report.name = result.items[i].label;
      } catch (...) {
        report.ok = false;
        report.failure = "non-standard exception escaped the flow";
        report.failure_kind = FailureKind::kInternal;
        report.name = result.items[i].label;
      }
      bool overdue = false;
      {
        const std::lock_guard<std::mutex> lock(w.m);
        w.active = false;
        overdue = w.overdue;
      }
      if (overdue && !report.ok && is_resource_kind(report.failure_kind)) {
        report.failure_kind = FailureKind::kDeadline;
        if (report.failed_stage)
          report.stage(*report.failed_stage).failure_kind =
              FailureKind::kDeadline;
      }
      return report;
    };

    FlowReport report = attempt(opts.flow);
    int attempts = 1;
    if (!report.ok && opts.retry_degraded &&
        is_resource_kind(report.failure_kind)) {
      FlowOptions degraded = opts.flow;
      degraded.on_budget = FlowOptions::OnBudget::kDegrade;
      report = attempt(std::move(degraded));
      attempts = 2;
    }

    if (opts.on_report) {
      const std::lock_guard<std::mutex> lock(report_mutex);
      opts.on_report(report);
    }
    result.items[i].report = std::move(report);
    result.items[i].attempts = attempts;
  });
  if (result.workers > 1)
    result.steals = shared_pool().steals() - steals_before;

  pool_done.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();

  for (const auto& item : result.items)
    (item.report.ok ? result.num_ok : result.num_failed) += 1;
  result.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return result;
}

}  // namespace

BatchResult run_batch_files(const std::vector<std::string>& paths,
                            const BatchOptions& opts) {
  std::vector<BatchItem> items(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) items[i].label = paths[i];
  return run_pool(std::move(items), opts,
                  [&](std::size_t i, const FlowOptions& flow_opts) {
                    Flow flow(flow_opts);
                    return flow.run_file(paths[i]);
                  });
}

BatchResult run_batch_suite(const std::vector<std::string>& names,
                            const BatchOptions& opts) {
  const std::vector<std::string> labels =
      names.empty() ? bench::suite_names() : names;
  std::vector<BatchItem> items(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) items[i].label = labels[i];
  return run_pool(std::move(items), opts,
                  [&](std::size_t i, const FlowOptions& flow_opts) {
                    Spec spec;
                    spec.name = labels[i];
                    spec.format = SpecFormat::kG;
                    spec.stg = bench::suite_benchmark(labels[i]).stg;
                    Flow flow(flow_opts);
                    return flow.run_spec(std::move(spec));
                  });
}

}  // namespace sitm
