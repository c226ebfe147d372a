// serve_mix: an in-process ServeEngine fed open-loop by one generator
// thread.  Most requests repeat the table1 hot set (warmed during set-up, so
// they are cache hits answered on the request thread); a minority are
// distinct random STGs from a fixed pool, in seeded order (misses, scheduled
// onto the engine's workers).

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "benchlib/random_stg.hpp"
#include "serve/server.hpp"
#include "stg/canon.hpp"
#include "stg/g_io.hpp"
#include "stg/load.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace sitm;

namespace {

constexpr int kWorkers = 2;     // scheduler workers
constexpr int kMapThreads = 2;  // every request's map_threads
constexpr double kDeadlineMs = 10000;

struct Shape {
  double rate;           ///< requests per second
  int misses_per_pass;   ///< fresh specs per pass over the hot set
  int passes;            ///< 0 = as many as fit in --seconds
};

Shape shape_of(const Args& args) {
  if (args.reduced) return {100, 4, 2};
  // 6 misses a pass keep the workers busy about a third of the time.  At
  // 12 (about half), a host slowed by a third pushed them near saturation
  // and the tail latency grew up to sevenfold.
  return {250, 6, 0};
}

/// The first `count` random STG specs of one fixed stream, unique by
/// canonical spec hash and distinct from every hot spec.  The pool is the
/// same on every seed: its flow times are heavy-tailed, and drawing a fresh
/// pool per seed moved the tail latency by more than the host's noise.  All
/// share one model name so that structurally identical nets collide.  6 to
/// 14 signals: the default 4 to 12 yields only about 450 distinct nets in
/// 3000 draws, fewer than a run sends.
std::vector<std::string> make_misses(std::size_t count,
                                     std::set<std::pair<std::uint64_t,
                                                        std::uint64_t>> seen) {
  bench::RandomStgOptions shape;
  shape.min_signals = 6;
  shape.max_signals = 14;
  Rng rng(0xa0761d6478bd642full + 3);
  std::vector<std::string> out;
  for (std::size_t tries = 0; out.size() < count; ++tries) {
    if (tries > 100 * count + 1000)
      throw Error("too few distinct random STGs for the miss stream");
    const std::string text =
        write_g_string(bench::make_random_stg(rng.next(), shape), "rnd");
    const SpecHash h = canonical_spec_hash(load_spec_string(text));
    if (seen.insert({h.hi, h.lo}).second) out.push_back(text);
  }
  return out;
}

struct Item {
  bool hot = false;
  std::size_t index = 0;  ///< into the hot set or the miss list
  int pass = 0;
};

struct Sample {
  Clock::time_point due, send, done;
  bool completed = false;  ///< ok, or a typed spec verdict
  bool cached = false;
  double flow_ms = 0;      ///< misses: the report's total_ms
};

}  // namespace

RunResult run_serve_mix(const Args& args) {
  RunResult r;
  const Shape shape = shape_of(args);

  // ---- set-up: inputs, engine, warm hot set (median of three) ----------
  std::vector<FlowInput> hot;
  std::map<std::string, FlowOutcome> golden;
  std::vector<std::string> hot_lines, miss_specs, miss_lines, cold;
  std::vector<Peek> cold_peek;
  std::unique_ptr<serve::ServeEngine> engine;
  int passes = 0;
  const double setup_s = median_seconds(5, [&] {
    engine.reset();
    hot = table1_inputs(args);
    golden = table1_golden(args);
    const int per_pass = static_cast<int>(hot.size()) + shape.misses_per_pass;
    passes = shape.passes > 0
                 ? shape.passes
                 : std::max(1, static_cast<int>(args.seconds * shape.rate /
                                                per_pass));
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    hot_lines.clear();
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const SpecHash h = canonical_spec_hash(load_spec_string(hot[i].text));
      seen.insert({h.hi, h.lo});
      hot_lines.push_back(request_line("h" + std::to_string(i), hot[i].text,
                                       hot[i].max_literals, kMapThreads));
    }
    miss_specs = make_misses(static_cast<std::size_t>(passes) *
                                 static_cast<std::size_t>(shape.misses_per_pass),
                             std::move(seen));
    // The seed only orders the pool.
    Rng order(args.seed * 0xa0761d6478bd642full + 3);
    for (std::size_t i = miss_specs.size(); i > 1; --i)
      std::swap(miss_specs[i - 1], miss_specs[order.below(i)]);
    miss_lines.clear();
    for (std::size_t i = 0; i < miss_specs.size(); ++i)
      miss_lines.push_back(
          request_line("m" + std::to_string(i), miss_specs[i], 2, kMapThreads));

    serve::ServeOptions so;
    so.flow.lint = true;   // as `sitm serve`
    so.flow.check = true;
    so.threads = kWorkers;
    so.request_deadline_ms = kDeadlineMs;
    engine = std::make_unique<serve::ServeEngine>(so);
    std::vector<std::future<std::string>> warm;
    for (const std::string& line : hot_lines)
      warm.push_back(engine->submit_line(line));
    cold.clear();
    cold_peek.clear();
    for (auto& f : warm) {
      cold.push_back(f.get());
      cold_peek.push_back(peek_response(cold.back()));
    }
  });
  if (!args.trace) r.metrics.set("setup_s", setup_s, "s");

  // The warmed hot set must reproduce the table1 golden file.
  long literals = 0, c_elements = 0, inserted = 0;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const FlowOutcome o = outcome_of_response(cold[i]);
    const auto it = golden.find(hot[i].label);
    if (it == golden.end() || !o.same_result(it->second) || !outcome_sound(o))
      r.mismatch("hot " + hot[i].label + ": served " + o.describe());
    literals += o.literals;
    c_elements += o.c_elements;
    inserted += o.signals_inserted;
  }
  std::string all;
  for (const std::string& line : miss_lines) all += line;
  r.note("inputs_digest=" + hex64(fnv1a64(all)));

  // ---- the open-loop schedule ---------------------------------------------
  // Hits in seeded order; misses evenly spaced among them, so that how often
  // misses queue behind each other does not hang on where the shuffle put
  // them.
  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 29);
  std::vector<Item> items;
  std::vector<std::size_t> order(hot.size());
  const int per_pass = static_cast<int>(hot.size()) + shape.misses_per_pass;
  for (int p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    std::size_t next_hot = 0;
    int next_miss = p * shape.misses_per_pass;
    for (int j = 0; j < per_pass; ++j) {
      if ((j + 1) * shape.misses_per_pass / per_pass >
          j * shape.misses_per_pass / per_pass)
        items.push_back({false, static_cast<std::size_t>(next_miss++), p});
      else
        items.push_back({true, order[next_hot++], p});
    }
  }
  const std::size_t n = items.size();
  // A traced run traces the second half of its passes.
  const int traced_from = args.trace ? passes / 2 : passes;

  Tracer tracer(Clock::now());
  std::vector<Sample> samples(n);
  std::vector<std::string> miss_reports(miss_lines.size());
  const serve::CacheStats cache0 = engine->cache().stats();
  const std::uint64_t steals0 = engine->steals();

  const auto complete = [&](std::size_t k, std::string resp,
                            Clock::time_point done) {
    Sample& s = samples[k];
    s.done = done;
    const Item& it = items[k];
    const Peek p = peek_response(resp);
    s.cached = p.cached;
    if (it.hot) {
      s.completed = p.status == "ok" && p.cached;
      // A sample of hits must be byte-identical to the cold response.
      if (s.completed && k % 16 == 0 &&
          !same_payload(resp, p, cold[it.index], cold_peek[it.index]))
        r.mismatch("hit " + hot[it.index].label + " differs from cold");
    } else {
      s.flow_ms = p.total_ms;
      // A typed `spec` verdict ("not implementable") is a completed
      // request; parse/budget/deadline/internal outcomes are failures.
      s.completed = !p.cached && (p.status == "ok" ||
                                  (p.status == "failed" &&
                                   p.failure_kind == "spec"));
      if (p.status == "ok") {
        const std::size_t at = resp.rfind(", \"netlist\": {");
        miss_reports[it.index] = resp.substr(0, at) + "}}";
      }
    }
    if (!s.completed)
      r.note("FAILED request " + std::to_string(k) + ": status=" + p.status +
             " kind=" + p.failure_kind + " cached=" + (p.cached ? "1" : "0"));
    if (it.pass >= traced_from) {
      const long req = static_cast<long>(k);
      if (it.hot)
        tracer.add("serve.hit", s.send, done, -1, req);
      else
        trace_miss(&tracer, s.send, done, s.flow_ms, req);
    }
  };

  struct Pending {
    std::size_t k;
    std::future<std::string> fut;
  };
  std::vector<Pending> pending;
  const auto poll = [&] {
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(pending[i].k, pending[i].fut.get(), Clock::now());
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  // Generator: sleep (polling in-flight misses) until each request is due,
  // spin only the last 150 us, then send.
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / shape.rate));
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t k = 0; k < n; ++k) {
    Sample& s = samples[k];
    s.due = t0 + gap * static_cast<long>(k);
    for (auto now = Clock::now(); now < s.due; now = Clock::now()) {
      poll();
      const auto left = s.due - Clock::now();
      if (left > std::chrono::microseconds(250))
        std::this_thread::sleep_for(
            std::min<Clock::duration>(left - std::chrono::microseconds(150),
                                      std::chrono::microseconds(200)));
      else
        std::this_thread::yield();
    }
    s.send = Clock::now();
    std::future<std::string> fut = engine->submit_line(
        items[k].hot ? hot_lines[items[k].index] : miss_lines[items[k].index]);
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
      complete(k, fut.get(), Clock::now());
    else
      pending.push_back({k, std::move(fut)});
  }
  const auto drain_limit = Clock::now() + std::chrono::seconds(60);
  while (!pending.empty() && Clock::now() < drain_limit) {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (!pending.empty()) {
    r.mismatch(std::to_string(pending.size()) + " requests never answered");
    for (auto& p : pending) p.fut.wait();  // the engine owns the work
    pending.clear();
  }
  const auto t_end = Clock::now();

  // ---- checks and metrics -------------------------------------------------
  std::vector<double> latency, miss_flow_ms, lag;
  // A pass's time is the engine's: the sum of its requests' service times
  // (send to response).  The span from first due time to last response
  // would mostly measure the generator's fixed schedule.
  std::vector<double> pass_ms(static_cast<std::size_t>(passes), 0);
  long hits = 0, misses = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Sample& s = samples[k];
    r.attempted += 1;
    if (!s.completed) r.failed += 1;
    (s.cached ? hits : misses) += 1;
    const double ms = ms_between(s.due, s.done);
    latency.push_back(s.completed ? ms : INFINITY);
    if (!items[k].hot && s.completed) miss_flow_ms.push_back(s.flow_ms);
    lag.push_back(ms_between(s.due, s.send));
    pass_ms[static_cast<std::size_t>(items[k].pass)] +=
        ms_between(s.send, s.done);
  }
  // Every ok miss must have been proven by check and verify.
  for (std::size_t i = 0; i < miss_reports.size(); ++i)
    if (!miss_reports[i].empty() &&
        !outcome_sound(outcome_of_response(miss_reports[i])))
      r.mismatch("miss m" + std::to_string(i) + " not proven");
  const serve::CacheStats cache1 = engine->cache().stats();
  if (static_cast<long>(cache1.hits - cache0.hits) != hits)
    r.mismatch("cache hit count " + std::to_string(cache1.hits - cache0.hits) +
               " != cached responses " + std::to_string(hits));

  const Tail t = tail(latency);
  r.note("requests=" + std::to_string(n) + " passes=" + std::to_string(passes) +
         " rate=" + std::to_string(static_cast<int>(shape.rate)) +
         "/s hits=" + std::to_string(hits) +
         " misses=" + std::to_string(misses));
  r.note("req_p99_ms is p" + std::to_string(static_cast<int>(t.percentile)) +
         " of " + std::to_string(t.samples) + " requests; generator lag p50=" +
         std::to_string(median(lag)) + " ms max=" +
         std::to_string(quantile(lag, 1)) + " ms");

  if (!args.trace) {
    r.metrics.set("pass_ms", median(pass_ms), "ms");
    // Each miss is one flow; hits run none.
    r.metrics.set("flow_ms_geomean", geomean(miss_flow_ms), "ms");
    r.metrics.set("req_p50_ms", median(latency), "ms");
    r.metrics.set("req_p99_ms", t.value, "ms");
    r.metrics.set("qor.literals", static_cast<double>(literals), "count");
    r.metrics.set("qor.c_elements", static_cast<double>(c_elements), "count");
    r.metrics.set("qor.signals_inserted", static_cast<double>(inserted),
                  "count");
    return r;
  }

  // ---- traced run: serve layers from the traced half ----------------------
  Layers layers;
  std::vector<double> hit_ms, miss_ms, flow_ms, wait_ms, traced_lag;
  double flow_sum = 0;
  Clock::time_point traced_t0 = t_end;
  std::vector<double> untraced_pass, traced_pass;
  for (std::size_t k = 0; k < n; ++k) {
    const Sample& s = samples[k];
    if (items[k].pass < traced_from) continue;
    traced_t0 = std::min(traced_t0, s.due);
    traced_lag.push_back(ms_between(s.due, s.send));
    const double service = ms_between(s.send, s.done);
    if (items[k].hot) {
      hit_ms.push_back(service);
    } else {
      miss_ms.push_back(service);
      flow_ms.push_back(s.flow_ms);
      wait_ms.push_back(std::max(0.0, service - s.flow_ms));
      flow_sum += s.flow_ms;
    }
  }
  for (int p = 0; p < passes; ++p)
    (p < traced_from ? untraced_pass : traced_pass).push_back(pass_ms[p]);
  layers["serve.hit_ms"] = median(hit_ms);
  layers["serve.miss_ms"] = median(miss_ms);
  layers["serve.flow_ms"] = median(flow_ms);
  layers["serve.queue_wait_ms"] = median(wait_ms);
  layers["gen.lag_ms"] = tail(traced_lag).value;
  const double hits_d = static_cast<double>(cache1.hits - cache0.hits);
  const double looks = hits_d + static_cast<double>(cache1.misses - cache0.misses);
  layers["cache.hit_ratio"] = looks > 0 ? hits_d / looks : 0;
  layers["cache.insertions"] =
      static_cast<double>(cache1.insertions - cache0.insertions);
  layers["cache.evictions"] = static_cast<double>(cache1.evictions);
  layers["cache.bytes_live"] = static_cast<double>(cache1.bytes_live);
  layers["sched.steals"] = static_cast<double>(engine->steals() - steals0);
  layers["sched.busy_share"] =
      flow_sum / (kWorkers * ms_between(traced_t0, t_end));
  layers["trace.overhead_ms"] =
      median(traced_pass) - (untraced_pass.empty() ? median(traced_pass)
                                                   : median(untraced_pass));

  // Stage layers: replay the hot set and the first pass's misses stage by
  // stage, and hold each replay to what the engine served.
  const int replay = tracer.open("replay");
  std::vector<FlowInput> replayed = hot;
  for (int m = 0; m < shape.misses_per_pass; ++m)
    replayed.push_back({"m" + std::to_string(m),
                        miss_specs[static_cast<std::size_t>(m)], 2});
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const bool is_hot = i < hot.size();
    const FlowInput& in = replayed[i];
    FlowOptions opts = flow_options(in.max_literals, kDeadlineMs);
    opts.mapper.threads = kMapThreads;
    const long req = -1 - static_cast<long>(i);
    const int span = tracer.open("flow", replay, req);
    const FlowOutcome o = replay_flow(in, opts, &tracer, span, req, &layers);
    tracer.close(span);
    const FlowOutcome served = is_hot
                                   ? outcome_of_response(cold[i])
                                   : outcome_of_response(
                                         miss_reports[i - hot.size()].empty()
                                             ? std::string("{}")
                                             : miss_reports[i - hot.size()]);
    const bool same =
        is_hot ? o.same_result(served)
               : (o.ok == served.ok && o.literals == served.literals &&
                  o.c_elements == served.c_elements &&
                  o.signals_inserted == served.signals_inserted);
    if (!same)
      r.mismatch("replay of " + in.label + " " + o.describe() +
                 " differs from served " + served.describe());
  }
  tracer.close(replay);
  derive_layer_ratios(&layers);
  layers["trace.spans"] = static_cast<double>(tracer.size());
  for (std::string& line : tracer.summary()) r.note(std::move(line));
  const std::string path = args.spans_dir + "/spans_" + args.workload + ".json";
  if (tracer.write(path)) r.note("spans written to " + path);
  emit_layer_metrics(layers, &r);
  return r;
}

}  // namespace perfbench
