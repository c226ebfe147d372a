#pragma once
// `sitm serve`: a persistent synthesis service over the Flow engine.
//
// Protocol: newline-delimited JSON, one request object per line, one
// response object per line, responses written in request order per
// stream.  Two transports share the same engine:
//   * pipe mode — requests on stdin, responses on stdout (tests, CI, and
//     anything that can spawn a process);
//   * unix-socket mode — SOCK_STREAM connections, each served by its own
//     reader/writer pair, all feeding one scheduler and one cache.
//
// Requests:
//   {"op": "stats"}      -> {"status":"ok","stats":{...counters...}}
//   {"op": "shutdown"}   -> {"status":"ok","shutdown":true}; the loop
//                           drains in-flight requests and exits.
//   {"id": "r1", "spec": "<.g/.sg text>",
//    "format": "auto|g|sg",              // default auto (sniffed)
//    "priority": 7,                      // higher starts earlier
//    "deadline_ms": 250,                 // per-request RunGuard deadline
//    "options": {...}}                   // output-affecting overrides
//
// Option overrides: the serve keys of the option table (flow/options.hpp),
// each validated by its row.
// `lint` (default from the base options; `sitm serve` turns it on) is the
// fast reject path: a spec with lint errors fails typed (`spec`) at the
// reachability gate, before any state graph is built.  `check` (also on by
// default under `sitm serve`) is the output-side counterpart: netlist
// static analysis plus the equivalence proof after the map stage.
//
// Responses:
//   {"id":"r1","status":"ok","cached":false,"key":"<hex>:<hex>",
//    "result":{"ok":true,"report":{...},"netlist":{"sg":...,...}}}
//   status "failed"  -> the flow ran and failed; result.report carries the
//                       typed failure_kind (the server loop stays up — this
//                       is the PR 7 containment contract).
//   status "error"   -> the *request* was malformed (bad JSON, unknown
//                       option); nothing ran.
//
// Caching: the result object of a successful run is serialized once and
// stored in the FlowCache under (canonical spec hash, options
// fingerprint); a warm request splices the cached bytes verbatim into its
// response, so warm results are bit-identical to the cold ones.  Failed
// runs are never cached (resource failures depend on wall clock; the
// cheap deterministic failures re-derive in microseconds).  Cache hits
// are answered on the request thread without touching the scheduler;
// misses run as scheduler jobs under the request's priority and a
// per-request RunGuard deadline.  The engine's scheduler only runs whole
// requests; a request's synth_threads / map_threads loops fork onto the
// process-wide pool of util/scheduler.hpp.
//
// Single flight: one flow runs per key at a time.  A request whose key is
// already in flight waits for that flow and answers "cached": true with
// the same spliced bytes; it counts as one cache hit and no miss.  When the
// flow fails, its waiters run their own flows (failures are never shared)
// and count as misses.

#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/flow.hpp"
#include "serve/flow_cache.hpp"
#include "util/scheduler.hpp"

namespace sitm::serve {

struct ServeOptions {
  /// Base options of every request's flow; request "options" members
  /// override output-affecting fields.  Emit paths are ignored (the server
  /// never writes spec outputs to disk); capture_emitted is forced on.
  FlowOptions flow;
  /// Request workers (the engine's own scheduler).  0 = one per hardware
  /// core.
  int threads = 1;
  /// FlowCache byte budget / shard count.
  std::size_t cache_bytes = std::size_t{256} << 20;
  int cache_shards = 16;
  /// Default per-request deadline when the request carries none; 0 = none.
  double request_deadline_ms = 0;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions opts);
  ~ServeEngine();

  /// Parse one request line and start it.  Control ops and cache hits
  /// complete immediately on the calling thread; misses are scheduled by
  /// priority.  The future always yields a response line (never throws).
  std::future<std::string> submit_line(const std::string& line);

  /// submit + wait: the synchronous shape the benches and tests use.
  std::string handle_line(const std::string& line) {
    return submit_line(line).get();
  }

  /// True once a {"op":"shutdown"} request was accepted.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

  Json stats_json() const;
  FlowCache& cache() { return cache_; }
  const ServeOptions& options() const { return opts_; }
  std::uint64_t steals() const { return sched_.steals(); }

 private:
  struct Request;  // parsed synthesis request (spec + merged options)

  /// Parse the request object into a Request; throws Error on bad fields.
  Request parse_request(const Json& j) const;
  /// A request waiting on the flow of an identical request.
  struct Waiter {
    std::shared_ptr<std::promise<std::string>> promise;
    std::shared_ptr<Request> req;
  };

  /// Run one cache-miss request through the Flow engine; returns the
  /// response line and, when the flow succeeded, stores the cached payload
  /// in `*payload`.  Never throws.
  std::string run_request(Request& req, std::string* payload);
  /// Schedule `req`'s flow, answering `promise`.  The leader of a flight
  /// lands it when done.
  void start_flow(std::shared_ptr<std::promise<std::string>> promise,
                  std::shared_ptr<Request> req, bool leads);
  /// End the flight of `key`: answer its waiters with `payload`, or, when
  /// it is empty (the flow failed), start their own flows.
  void land_flight(const CacheKey& key, const std::string& payload);
  static std::string error_response(const std::string& id,
                                    const std::string& message);

  ServeOptions opts_;
  FlowCache cache_;
  WorkStealingScheduler sched_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::mutex flights_mu_;
  /// The waiters of each key whose flow is in flight.
  std::unordered_map<CacheKey, std::vector<Waiter>, CacheKeyHash> flights_;
};

/// Shared request loop: read lines with `read_line` (false = EOF), write
/// each response with `write_line`, in request order, overlapping
/// execution via the engine's scheduler.  Returns when the stream ends or
/// a shutdown request has been answered.
void serve_stream(ServeEngine& engine,
                  const std::function<bool(std::string&)>& read_line,
                  const std::function<void(const std::string&)>& write_line);

/// Pipe mode: stdin/stdout of this process.  Returns 0 on clean EOF or
/// shutdown.
int serve_pipe(ServeEngine& engine, std::istream& in, std::ostream& out);

/// Unix-socket mode: bind `path` (an existing socket file is replaced),
/// accept until a shutdown request arrives.  Each connection runs the
/// stream loop above.  Returns 0 on shutdown, 1 on socket errors.
int serve_socket(ServeEngine& engine, const std::string& path);

}  // namespace sitm::serve
