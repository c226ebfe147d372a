// The serve front-end: slab pool, content-addressed FlowCache, the JSON
// request parser, and the ServeEngine request loop (miss -> hit with
// bit-identical result bytes, deadline-change cache reuse, single flight,
// fault containment, control ops, ordered pipe-mode responses).

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "benchlib/suite.hpp"
#include "serve/arena.hpp"
#include "serve/flow_cache.hpp"
#include "serve/server.hpp"
#include "stg/g_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace sitm::serve {
namespace {

// ---- SlabPool ------------------------------------------------------------

TEST(SlabPool, RoundsToSizeClassesAndReuses) {
  SlabPool pool;
  SlabPool::Block b = pool.alloc(100);
  EXPECT_EQ(b.size, 128u);
  EXPECT_EQ(pool.bytes_live(), 128u);
  char* const first = b.data;

  pool.release(b);
  EXPECT_EQ(pool.bytes_live(), 0u);
  EXPECT_EQ(pool.bytes_pooled(), 128u);

  // Same class: the freelist block comes back instead of a fresh one.
  SlabPool::Block again = pool.alloc(65);
  EXPECT_EQ(again.data, first);
  EXPECT_EQ(pool.bytes_pooled(), 0u);
  pool.release(again);

  pool.trim();
  EXPECT_EQ(pool.bytes_pooled(), 0u);
}

TEST(SlabPool, TinyAndOversizedRequests) {
  SlabPool pool;
  SlabPool::Block tiny = pool.alloc(1);
  EXPECT_EQ(tiny.size, SlabPool::kMinClass);

  // Above the largest class: exact allocation, never parked on a freelist.
  SlabPool::Block big = pool.alloc(SlabPool::kMaxClass + 1);
  EXPECT_EQ(big.size, SlabPool::kMaxClass + 1);
  pool.release(big);
  EXPECT_EQ(pool.bytes_pooled(), 0u) << "oversized blocks are never pooled";
  pool.release(tiny);
  EXPECT_EQ(pool.bytes_pooled(), SlabPool::kMinClass);
}

// ---- FlowCache -----------------------------------------------------------

CacheKey key(std::uint64_t n, std::uint64_t options = 0) {
  return CacheKey{SpecHash{n, n ^ 0x5555555555555555ull}, options};
}

TEST(FlowCache, InsertLookupAndCounters) {
  FlowCache cache(std::size_t{1} << 20, /*shards=*/1);
  std::string out;
  EXPECT_FALSE(cache.lookup(key(1), &out));
  cache.insert(key(1), "payload-one");
  EXPECT_TRUE(cache.lookup(key(1), &out));
  EXPECT_EQ(out, "payload-one");
  EXPECT_FALSE(cache.lookup(key(1, /*options=*/7), &out))
      << "same spec, different options fingerprint is a different entry";

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(FlowCache, ByteBudgetedLruEviction) {
  // One shard, 4096-byte budget.  1000-byte payloads round to 1024-byte
  // slabs + 128 overhead = 1152 charged: three fit, the fourth evicts the
  // least recently used.
  FlowCache cache(4096, /*shards=*/1);
  cache.insert(key(1), std::string(1000, 'a'));
  cache.insert(key(2), std::string(1000, 'b'));
  cache.insert(key(3), std::string(1000, 'c'));

  std::string out;
  EXPECT_TRUE(cache.lookup(key(1), &out));  // k1 -> MRU; k2 is now coldest
  cache.insert(key(4), std::string(1000, 'd'));

  EXPECT_FALSE(cache.lookup(key(2), &out)) << "LRU entry was evicted";
  EXPECT_TRUE(cache.lookup(key(1), &out));
  EXPECT_TRUE(cache.lookup(key(3), &out));
  EXPECT_TRUE(cache.lookup(key(4), &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(FlowCache, RejectsEntriesLargerThanAShard) {
  FlowCache cache(1024, /*shards=*/1);
  cache.insert(key(1), std::string(5000, 'x'));
  std::string out;
  EXPECT_FALSE(cache.lookup(key(1), &out));
  EXPECT_EQ(cache.stats().rejected, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(FlowCache, DuplicateInsertKeepsTheFirstPayload) {
  // Two racing misses compute identical bytes; the first insert wins and
  // the second is a no-op rather than an invalidation.
  FlowCache cache(std::size_t{1} << 20, 1);
  cache.insert(key(1), "first");
  cache.insert(key(1), "second");
  std::string out;
  EXPECT_TRUE(cache.lookup(key(1), &out));
  EXPECT_EQ(out, "first");
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(FlowCache, ClearReleasesEverything) {
  FlowCache cache(std::size_t{1} << 20, 4);
  for (std::uint64_t i = 0; i < 32; ++i)
    cache.insert(key(i), std::string(100, 'x'));
  cache.clear();
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes_live, 0u);
  EXPECT_EQ(st.bytes_pooled, 0u);
  std::string out;
  EXPECT_FALSE(cache.lookup(key(3), &out));
}

// ---- Json::parse ---------------------------------------------------------

TEST(JsonParse, FullGrammarRoundTrip) {
  const Json j = Json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\n\"yé", "o": {"t": true, "n": null, "f": false}})");
  ASSERT_EQ(j.kind(), Json::Kind::kObject);
  const Json* a = j.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].number(), 1.0);
  EXPECT_EQ(a->items()[1].number(), 2.5);
  EXPECT_EQ(a->items()[2].number(), -300.0);
  EXPECT_EQ(j.find("s")->string_value(), "x\n\"y\xc3\xa9");
  EXPECT_TRUE(j.find("o")->find("t")->bool_value());
  EXPECT_EQ(j.find("o")->find("n")->kind(), Json::Kind::kNull);

  // dump -> parse -> dump is a fixed point.
  const std::string once = j.dump(0);
  EXPECT_EQ(Json::parse(once).dump(0), once);
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  const Json j = Json::parse(R"("😀")");
  EXPECT_EQ(j.string_value(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);
  EXPECT_THROW(Json::parse(R"("\q")"), Error);
  EXPECT_THROW(Json::parse(R"("\ud83d")"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse(""), Error);
}

// ---- ServeEngine ---------------------------------------------------------

std::string chu133_text() {
  return write_g_string(bench::suite_benchmark("chu133").stg, "chu133");
}

std::string request(const std::string& id, const std::string& spec) {
  Json j = Json::object();
  j.set("id", Json(id));
  j.set("spec", Json(spec));
  return j.dump(0);
}

/// The spliced result section of a response line (byte-exact).
std::string result_bytes(const std::string& response) {
  const auto pos = response.find("\"result\":");
  EXPECT_NE(pos, std::string::npos) << response;
  return response.substr(pos);
}

TEST(ServeEngine, MissThenHitWithBitIdenticalResult) {
  ServeOptions so;
  so.threads = 2;
  ServeEngine engine(so);

  const std::string cold = engine.handle_line(request("r1", chu133_text()));
  const std::string warm = engine.handle_line(request("r2", chu133_text()));

  const Json jc = Json::parse(cold), jw = Json::parse(warm);
  EXPECT_EQ(jc.find("status")->string_value(), "ok");
  EXPECT_FALSE(jc.find("cached")->bool_value());
  EXPECT_TRUE(jw.find("cached")->bool_value());
  EXPECT_EQ(jc.find("key")->string_value(), jw.find("key")->string_value());
  EXPECT_EQ(result_bytes(cold), result_bytes(warm))
      << "warm result must be the cold result's bytes, spliced verbatim";
  EXPECT_FALSE(
      jc.find("result")->find("netlist")->find("verilog")->string_value()
          .empty());

  const CacheStats st = engine.cache().stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(ServeEngine, ReformattedSpecHitsTheSameEntry) {
  ServeOptions so;
  ServeEngine engine(so);
  engine.handle_line(request("cold", chu133_text()));
  // Inject a comment and permute nothing semantic: still the same key.
  const std::string variant = "# reformatted\n" + chu133_text() + "\n\n";
  const Json warm = Json::parse(engine.handle_line(request("warm", variant)));
  EXPECT_TRUE(warm.find("cached")->bool_value());
}

TEST(ServeEngine, DeadlineChangeStillReusesACachedSuccess) {
  ServeOptions so;
  ServeEngine engine(so);
  engine.handle_line(request("cold", chu133_text()));

  Json j = Json::object();
  j.set("id", Json("warm"));
  j.set("spec", Json(chu133_text()));
  j.set("deadline_ms", Json(60000));
  const Json resp = Json::parse(engine.handle_line(j.dump(0)));
  EXPECT_EQ(resp.find("status")->string_value(), "ok");
  EXPECT_TRUE(resp.find("cached")->bool_value())
      << "deadlines are observational and must not split the cache key";
}

TEST(ServeEngine, OutputAffectingOptionSplitsTheKey) {
  ServeOptions so;
  ServeEngine engine(so);
  engine.handle_line(request("cold", chu133_text()));

  Json j = Json::object();
  j.set("id", Json("other"));
  j.set("spec", Json(chu133_text()));
  Json opts = Json::object();
  opts.set("csc_top_k", Json(2));
  j.set("options", std::move(opts));
  const Json resp = Json::parse(engine.handle_line(j.dump(0)));
  EXPECT_EQ(resp.find("status")->string_value(), "ok");
  EXPECT_FALSE(resp.find("cached")->bool_value());
}

TEST(ServeEngine, MinimizePassesOptionAlsoSetsTheMapperPasses) {
  // The key sets the synth and the mapper pass counts alike, so the map
  // stage reuses the synth stage's syntheses and builds its netlist at the
  // requested passes, exactly as a library Flow with both fields set.
  ServeOptions so;
  ServeEngine engine(so);
  Json j = Json::parse(request("p3", chu133_text()));
  j.set("options", Json::parse(R"({"minimize_passes":3})"));
  const Json resp = Json::parse(engine.handle_line(j.dump(0)));
  ASSERT_EQ(resp.find("status")->string_value(), "ok");

  FlowOptions lib;
  lib.mc.minimize_passes = 3;
  lib.mapper.mc.minimize_passes = 3;
  lib.capture_emitted = true;
  Flow flow(lib);
  const FlowReport report = flow.run_string(chu133_text());
  ASSERT_TRUE(report.ok) << report.failure;

  // Same options, so the same cache key: the key's options half is the
  // library options' fingerprint.
  char options_hex[24];
  std::snprintf(options_hex, sizeof options_hex, "%016llx",
                static_cast<unsigned long long>(lib.fingerprint()));
  const std::string& key = resp.find("key")->string_value();
  EXPECT_EQ(key.substr(key.find(':') + 1), options_hex);

  const Json& result = *resp.find("result");
  EXPECT_EQ(result.find("netlist")->find("verilog")->string_value(),
            flow.context().emitted_verilog);
  const Json* served_map = nullptr;
  for (const Json& stage : result.find("report")->find("stages")->items())
    if (stage.find("stage")->string_value() == "map") served_map = &stage;
  ASSERT_NE(served_map, nullptr);
  const StageReport& map = report.stage(Stage::kMap);
  ASSERT_FALSE(map.metrics.empty());
  for (const auto& [name, value] : map.metrics)
    EXPECT_EQ(served_map->find("metrics")->find(name)->number(), value)
        << name;
}

TEST(ServeEngine, MalformedRequestsAreContained) {
  ServeOptions so;
  ServeEngine engine(so);
  EXPECT_EQ(Json::parse(engine.handle_line("not json at all"))
                .find("status")->string_value(),
            "error");
  EXPECT_EQ(Json::parse(engine.handle_line(R"({"id":"x","spec":123})"))
                .find("status")->string_value(),
            "error");
  EXPECT_EQ(Json::parse(
                engine.handle_line(R"({"spec":"x","options":{"nope":1}})"))
                .find("status")->string_value(),
            "error");
  // `symbolic_check` is not a serve option: naming it rejects the request
  // even when the spec is valid.
  Json removed = Json::parse(request("sym", chu133_text()));
  removed.set("options", Json::parse(R"({"symbolic_check":true})"));
  EXPECT_EQ(Json::parse(engine.handle_line(removed.dump(0)))
                .find("status")->string_value(),
            "error");
  // The engine keeps answering.
  EXPECT_EQ(Json::parse(engine.handle_line(request("ok", chu133_text())))
                .find("status")->string_value(),
            "ok");
}

TEST(ServeEngine, InjectedFlowFaultYieldsTypedFailureAndNoCaching) {
  fault::clear();
  fault::arm("flow.csc", fault::Action::kCancel, /*nth=*/1);
  ServeOptions so;
  ServeEngine engine(so);

  const Json failed =
      Json::parse(engine.handle_line(request("f", chu133_text())));
  EXPECT_EQ(failed.find("status")->string_value(), "failed");
  EXPECT_EQ(
      failed.find("result")->find("report")->find("failure_kind")
          ->string_value(),
      "cancelled");
  EXPECT_FALSE(failed.find("cached")->bool_value());

  // The fault fired once; the same request recomputes (failures are never
  // cached) and now succeeds, then hits.
  const Json ok = Json::parse(engine.handle_line(request("g", chu133_text())));
  EXPECT_EQ(ok.find("status")->string_value(), "ok");
  EXPECT_FALSE(ok.find("cached")->bool_value());
  const Json hit =
      Json::parse(engine.handle_line(request("h", chu133_text())));
  EXPECT_TRUE(hit.find("cached")->bool_value());
  fault::clear();
}

TEST(ServeEngine, ConcurrentIdenticalRequestsRunOneFlow) {
  // The first flow sleeps at its csc stage, so the second submission finds
  // its key in flight, waits for it, and answers with its bytes.
  fault::clear();
  fault::arm("flow.csc", fault::Action::kSleep, /*nth=*/1, /*arg=*/200);
  ServeOptions so;
  so.threads = 2;
  ServeEngine engine(so);

  std::future<std::string> first =
      engine.submit_line(request("r1", chu133_text()));
  std::future<std::string> second =
      engine.submit_line(request("r2", chu133_text()));
  const std::string cold = first.get(), joined = second.get();

  const Json jc = Json::parse(cold), jj = Json::parse(joined);
  EXPECT_EQ(jc.find("status")->string_value(), "ok");
  EXPECT_FALSE(jc.find("cached")->bool_value());
  EXPECT_EQ(jj.find("status")->string_value(), "ok");
  EXPECT_TRUE(jj.find("cached")->bool_value());
  EXPECT_EQ(jj.find("id")->string_value(), "r2");
  EXPECT_EQ(result_bytes(cold), result_bytes(joined));
  EXPECT_EQ(fault::hit_count("flow.csc"), 1u) << "one flow for both requests";

  const CacheStats st = engine.cache().stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  fault::clear();
}

TEST(ServeEngine, WaitersOfAFailedFlightRunTheirOwnFlow) {
  // The first flow sleeps at reachability while the second request joins
  // it, then fails at csc.  Failures are never shared: the waiter runs its
  // own flow, succeeds, and counts as a miss.
  fault::clear();
  fault::arm("flow.reachability", fault::Action::kSleep, /*nth=*/1,
             /*arg=*/200);
  fault::arm("flow.csc", fault::Action::kCancel, /*nth=*/1);
  ServeOptions so;
  so.threads = 2;
  ServeEngine engine(so);

  std::future<std::string> first =
      engine.submit_line(request("r1", chu133_text()));
  std::future<std::string> second =
      engine.submit_line(request("r2", chu133_text()));
  const Json failed = Json::parse(first.get());
  const Json own = Json::parse(second.get());

  EXPECT_EQ(failed.find("status")->string_value(), "failed");
  EXPECT_EQ(own.find("status")->string_value(), "ok");
  EXPECT_FALSE(own.find("cached")->bool_value());
  EXPECT_EQ(fault::hit_count("flow.csc"), 2u);

  const CacheStats st = engine.cache().stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 2u);
  fault::clear();
}

TEST(ServeEngine, EngineLevelFaultBecomesARequestError) {
  fault::clear();
  fault::arm("serve.request", fault::Action::kError, /*nth=*/1);
  ServeOptions so;
  ServeEngine engine(so);
  EXPECT_EQ(Json::parse(engine.handle_line(request("a", chu133_text())))
                .find("status")->string_value(),
            "error");
  EXPECT_EQ(Json::parse(engine.handle_line(request("b", chu133_text())))
                .find("status")->string_value(),
            "ok");
  fault::clear();
}

TEST(ServeEngine, StatsAndShutdownOps) {
  ServeOptions so;
  ServeEngine engine(so);
  engine.handle_line(request("r", chu133_text()));

  const Json stats = Json::parse(engine.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.find("status")->string_value(), "ok");
  const Json* s = stats.find("stats");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->find("cache_misses")->number(), 1.0);
  EXPECT_EQ(s->find("cache_insertions")->number(), 1.0);
  ASSERT_NE(s->find("steals"), nullptr);
  ASSERT_NE(s->find("cache_evictions")->kind(), Json::Kind::kNull);

  EXPECT_FALSE(engine.shutdown_requested());
  const Json ack = Json::parse(engine.handle_line(R"({"op":"shutdown"})"));
  EXPECT_TRUE(ack.find("shutdown")->bool_value());
  EXPECT_TRUE(engine.shutdown_requested());
}

TEST(ServePipe, OrderedResponsesAndShutdownStopsReading) {
  ServeOptions so;
  so.threads = 2;
  ServeEngine engine(so);

  std::istringstream in(request("r1", chu133_text()) + "\n" +
                        request("r2", chu133_text()) + "\n" +
                        R"({"op":"shutdown"})" + "\n" +
                        request("never", chu133_text()) + "\n");
  std::ostringstream out;
  EXPECT_EQ(serve_pipe(engine, in, out), 0);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u) << "no request processed after shutdown";
  EXPECT_EQ(Json::parse(lines[0]).find("id")->string_value(), "r1");
  EXPECT_EQ(Json::parse(lines[1]).find("id")->string_value(), "r2");
  EXPECT_TRUE(Json::parse(lines[2]).find("shutdown")->bool_value());
}

}  // namespace
}  // namespace sitm::serve
