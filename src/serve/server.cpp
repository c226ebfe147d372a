#include "serve/server.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <istream>
#include <ostream>
#include <thread>
#include <vector>

#include "flow/options.hpp"
#include "stg/canon.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace sitm::serve {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Apply the request's "options" object onto the base FlowOptions through
/// the option table; an unknown key is a request error, not a silent
/// cache split.
void apply_options(const Json& o, FlowOptions* flow) {
  if (o.kind() != Json::Kind::kObject)
    throw Error("\"options\" must be an object");
  for (const auto& [key, v] : o.members()) {
    const OptionRow* row = option_by_key(key);
    if (!row) throw Error("unknown option: " + key);
    row->set(*flow, v, key.c_str());
  }
}

/// Assemble a response line around the pre-serialized result payload.  The
/// payload bytes are spliced verbatim — this, not any re-serialization
/// discipline, is what makes a warm response bit-identical to the cold one
/// that populated the cache entry.
std::string make_response(const std::string& id, const CacheKey& key,
                          bool cached, bool ok, const std::string& payload) {
  std::string out = "{\"id\":";
  if (id.empty()) {
    out += "null";
  } else {
    out += '"';
    out += Json::escape(id);
    out += '"';
  }
  out += ",\"status\":\"";
  out += ok ? "ok" : "failed";
  out += "\",\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"key\":\"";
  out += key.spec.hex();
  out += ':';
  out += hex64(key.options);
  out += "\",\"result\":";
  out += payload;
  out += '}';
  return out;
}

}  // namespace

struct ServeEngine::Request {
  std::string id;
  Spec spec;
  FlowOptions flow;
  CacheKey key;
  int priority = 0;
};

ServeEngine::ServeEngine(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_bytes, opts_.cache_shards),
      sched_(opts_.threads) {}

ServeEngine::~ServeEngine() { sched_.shutdown(); }

std::string ServeEngine::error_response(const std::string& id,
                                        const std::string& message) {
  std::string out = "{\"id\":";
  if (id.empty()) {
    out += "null";
  } else {
    out += '"';
    out += Json::escape(id);
    out += '"';
  }
  out += ",\"status\":\"error\",\"error\":\"";
  out += Json::escape(message);
  out += "\"}";
  return out;
}

ServeEngine::Request ServeEngine::parse_request(const Json& j) const {
  const Json* specv = j.find("spec");
  if (!specv) throw Error("request needs a \"spec\" field (or an \"op\")");
  const std::string& text = want_string(*specv, "spec");

  FlowOptions flow = opts_.flow;
  if (const Json* f = j.find("format"))
    option_by_field("format")->set(flow, *f, "format");
  if (const Json* o = j.find("options")) apply_options(*o, &flow);

  // Server invariants: never write spec outputs to disk, always capture the
  // emitted text (it is the cached artifact), and give each request its own
  // flow-owned guard — a shared one would let one request's deadline cancel
  // another.
  flow.emit_sg_path.clear();
  flow.emit_verilog_path.clear();
  flow.emit_eqn_path.clear();
  flow.capture_emitted = true;
  flow.guard.reset();
  flow.deadline_ms = opts_.request_deadline_ms;
  if (const Json* d = j.find("deadline_ms"))
    flow.deadline_ms = want_number(*d, "deadline_ms");

  Request req;
  req.spec = load_spec_string(text, flow.format);
  req.flow = std::move(flow);
  req.key = CacheKey{canonical_spec_hash(req.spec), req.flow.fingerprint()};
  if (const Json* p = j.find("priority"))
    req.priority = want_int(*p, "priority", 0);
  return req;
}

std::future<std::string> ServeEngine::submit_line(const std::string& line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> fut = promise->get_future();
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string id;
  try {
    fault::hit("serve.request");
    const Json j = Json::parse(line);
    if (j.kind() != Json::Kind::kObject)
      throw Error("request must be a JSON object");
    if (const Json* idv = j.find("id")) {
      id = idv->kind() == Json::Kind::kString ? idv->string_value()
                                              : idv->dump(0);
    }

    if (const Json* op = j.find("op")) {
      const std::string& name = want_string(*op, "op");
      if (name == "stats") {
        promise->set_value("{\"status\":\"ok\",\"stats\":" +
                           stats_json().dump(0) + "}");
      } else if (name == "shutdown") {
        shutdown_.store(true, std::memory_order_relaxed);
        promise->set_value("{\"status\":\"ok\",\"shutdown\":true}");
      } else {
        throw Error("unknown op: " + name);
      }
      return fut;
    }

    Request req = parse_request(j);
    req.id = id;

    // Warm path: answer on the request thread, no scheduling.  Only
    // successful results are cached, so a hit is always status "ok".
    std::string payload;
    if (cache_.lookup(req.key, &payload)) {
      promise->set_value(
          make_response(req.id, req.key, /*cached=*/true, true, payload));
      return fut;
    }

    // Single flight: join the identical request in flight, or lead one.
    // A flight that landed since the lookup above costs one duplicate flow,
    // never a wrong answer.
    auto shared_req = std::make_shared<Request>(std::move(req));
    {
      const std::lock_guard<std::mutex> lock(flights_mu_);
      const auto [it, leads] = flights_.try_emplace(shared_req->key);
      if (!leads) {
        it->second.push_back(Waiter{promise, shared_req});
        cache_.recount_lookup(/*as_hit=*/true);
        return fut;
      }
    }
    start_flow(promise, std::move(shared_req), /*leads=*/true);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    promise->set_value(error_response(id, e.what()));
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    promise->set_value(error_response(id, "non-standard exception"));
  }
  return fut;
}

void ServeEngine::start_flow(std::shared_ptr<std::promise<std::string>> promise,
                             std::shared_ptr<Request> req, bool leads) {
  const int priority = req->priority;
  const bool accepted = sched_.submit(
      [this, promise, req, leads] {
        std::string payload;
        promise->set_value(run_request(*req, &payload));
        if (leads) land_flight(req->key, payload);
      },
      priority);
  if (accepted) return;
  errors_.fetch_add(1, std::memory_order_relaxed);
  promise->set_value(error_response(req->id, "server is shutting down"));
  if (leads) land_flight(req->key, {});
}

void ServeEngine::land_flight(const CacheKey& key, const std::string& payload) {
  std::vector<Waiter> waiters;
  {
    const std::lock_guard<std::mutex> lock(flights_mu_);
    const auto it = flights_.find(key);
    waiters = std::move(it->second);
    flights_.erase(it);
  }
  for (Waiter& w : waiters) {
    if (!payload.empty()) {
      w.promise->set_value(
          make_response(w.req->id, key, /*cached=*/true, true, payload));
    } else {
      cache_.recount_lookup(/*as_hit=*/false);
      start_flow(std::move(w.promise), std::move(w.req), /*leads=*/false);
    }
  }
}

std::string ServeEngine::run_request(Request& req, std::string* payload) {
  try {
    Flow flow(req.flow);
    const FlowReport report = flow.run_spec(std::move(req.spec));
    const FlowContext& ctx = flow.context();

    Json result = Json::object();
    result.set("ok", Json(report.ok));
    result.set("report", report.to_json());
    Json netlist = Json::object();
    netlist.set("sg", Json(ctx.emitted_sg));
    netlist.set("verilog", Json(ctx.emitted_verilog));
    netlist.set("eqn", Json(ctx.emitted_eqn));
    result.set("netlist", std::move(netlist));
    std::string result_bytes = result.dump(0);

    if (report.ok) {
      cache_.insert(req.key, result_bytes);
      *payload = result_bytes;
    } else {
      // Failed runs are never cached: deadline/budget verdicts depend on
      // the wall clock, and deterministic failures re-derive cheaply.
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    return make_response(req.id, req.key, /*cached=*/false, report.ok,
                         result_bytes);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, e.what());
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(req.id, "non-standard exception");
  }
}

Json ServeEngine::stats_json() const {
  const CacheStats cs = cache_.stats();
  Json s = Json::object();
  s.set("requests", Json(requests_.load(std::memory_order_relaxed)));
  s.set("failed", Json(failed_.load(std::memory_order_relaxed)));
  s.set("errors", Json(errors_.load(std::memory_order_relaxed)));
  s.set("cache_hits", Json(cs.hits));
  s.set("cache_misses", Json(cs.misses));
  s.set("cache_evictions", Json(cs.evictions));
  s.set("cache_insertions", Json(cs.insertions));
  s.set("cache_rejected", Json(cs.rejected));
  s.set("cache_entries", Json(cs.entries));
  s.set("cache_bytes_live", Json(cs.bytes_live));
  s.set("cache_bytes_pooled", Json(cs.bytes_pooled));
  s.set("cache_byte_budget", Json(cs.byte_budget));
  s.set("steals", Json(sched_.steals()));
  s.set("executed", Json(sched_.executed()));
  s.set("workers", Json(sched_.num_workers()));
  return s;
}

void serve_stream(ServeEngine& engine,
                  const std::function<bool(std::string&)>& read_line,
                  const std::function<void(const std::string&)>& write_line) {
  // Reader (this thread) submits; the writer thread emits responses in
  // request order, so execution overlaps across requests while the stream
  // stays ordered.
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::future<std::string>> inflight;
  bool done = false;

  std::thread writer([&] {
    std::unique_lock<std::mutex> lock(m);
    while (true) {
      cv.wait(lock, [&] { return done || !inflight.empty(); });
      if (inflight.empty()) return;  // done && drained
      std::future<std::string> f = std::move(inflight.front());
      inflight.pop_front();
      lock.unlock();
      write_line(f.get());
      lock.lock();
    }
  });

  std::string line;
  while (!engine.shutdown_requested() && read_line(line)) {
    if (line.empty()) continue;
    std::future<std::string> fut = engine.submit_line(line);
    {
      const std::lock_guard<std::mutex> lock(m);
      inflight.push_back(std::move(fut));
    }
    cv.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(m);
    done = true;
  }
  cv.notify_one();
  writer.join();
}

int serve_pipe(ServeEngine& engine, std::istream& in, std::ostream& out) {
  serve_stream(
      engine,
      [&](std::string& line) { return static_cast<bool>(std::getline(in, line)); },
      [&](const std::string& resp) { out << resp << '\n' << std::flush; });
  return 0;
}

#ifndef _WIN32

int serve_socket(ServeEngine& engine, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "serve: socket path too long: %s\n", path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("serve: socket");
    return 1;
  }
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("serve: bind/listen");
    ::close(listen_fd);
    return 1;
  }

  std::mutex conn_m;
  std::vector<int> conn_fds;
  std::vector<std::thread> conns;
  while (!engine.shutdown_requested()) {
    // Poll with a timeout so a shutdown requested on some connection stops
    // the accept loop promptly.
    pollfd pfd{listen_fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r < 0) {
      if (errno == EINTR) continue;
      std::perror("serve: poll");
      break;
    }
    if (r == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    std::size_t slot;
    {
      const std::lock_guard<std::mutex> lock(conn_m);
      slot = conn_fds.size();
      conn_fds.push_back(fd);
    }
    conns.emplace_back([&engine, &conn_m, &conn_fds, fd, slot] {
      std::string buf;
      const auto read_line = [&](std::string& line) -> bool {
        while (true) {
          const std::size_t nl = buf.find('\n');
          if (nl != std::string::npos) {
            line.assign(buf, 0, nl);
            buf.erase(0, nl + 1);
            return true;
          }
          char chunk[4096];
          const ssize_t n = ::read(fd, chunk, sizeof chunk);
          if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            if (!buf.empty()) {  // final line without a newline
              line.swap(buf);
              buf.clear();
              return true;
            }
            return false;
          }
          buf.append(chunk, static_cast<std::size_t>(n));
        }
      };
      const auto write_line = [&](const std::string& resp) {
        std::string out = resp;
        out += '\n';
        std::size_t off = 0;
        while (off < out.size()) {
          // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the server.
          const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                                   MSG_NOSIGNAL);
          if (n < 0) {
            if (errno == EINTR) continue;
            return;
          }
          off += static_cast<std::size_t>(n);
        }
      };
      serve_stream(engine, read_line, write_line);
      // The stream is done (client EOF or shutdown op): close this
      // connection *now* so a client draining until EOF unblocks, and mark
      // the slot so the join-phase cleanup never touches a reused fd.
      const std::lock_guard<std::mutex> lock(conn_m);
      ::close(fd);
      conn_fds[slot] = -1;
    });
  }
  ::close(listen_fd);
  {
    // Unblock connection readers still parked in read(2), then join.  The
    // threads own the close (above); here we only half-kill live sockets.
    const std::lock_guard<std::mutex> lock(conn_m);
    for (const int fd : conn_fds)
      if (fd != -1) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : conns) t.join();
  ::unlink(path.c_str());
  return 0;
}

#else

int serve_socket(ServeEngine&, const std::string&) {
  std::fprintf(stderr, "serve: unix sockets are not available here; "
                       "use --pipe\n");
  return 1;
}

#endif

}  // namespace sitm::serve
