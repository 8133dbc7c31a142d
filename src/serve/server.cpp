#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <sstream>
#include <string_view>

#include "core/error.h"
#include "core/table.h"
#include "exp/trace_io.h"
#include "hc/workload_io.h"
#include "heuristics/scheduler.h"
#include "sched/validate.h"
#include "search/engine.h"

namespace sehc {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double sec_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(b - a);
  return us.count() <= 0 ? 0 : static_cast<std::uint64_t>(us.count());
}

/// poll() for readability with EINTR handling; false on timeout.
bool poll_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    return r > 0;
  }
}

}  // namespace

/// Outcome of one solve, fanned out to every coalesced waiter.
struct SolveOutcome {
  bool ok = false;
  std::string error;
  CachedSolve result;
  bool timed_out = false;
  Clock::time_point solve_start{};
  Clock::time_point solve_end{};
};

/// A request body parsed once, with its workload's identity bytes (the
/// workload part of the response-cache key) and their hash. Immutable once
/// built, so connection threads share it without locking.
struct Server::ParsedBody {
  explicit ParsedBody(const std::string& body)
      : workload(workload_from_string(body)),
        identity(std::make_shared<const std::string>(
            workload_identity(workload))),
        identity_hash(std::hash<std::string_view>{}(*identity)) {}

  Workload workload;
  /// Shared with every RequestKey built from this body: a response entry
  /// keeps the identity bytes alive, not a copy of them (nor the workload).
  std::shared_ptr<const std::string> identity;
  std::uint64_t identity_hash;
};

/// One admitted cache-miss request plus everyone waiting on it.
struct Server::InFlight {
  std::uint64_t hash = 0;
  RequestKey key;
  ScheduleRequest request;                 // workload_text cleared
  std::shared_ptr<const ParsedBody> body;  // parsed once, shared
  std::vector<std::promise<SolveOutcome>> promises;  // guarded by inflight_mutex_
};

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      workload_cache_(options_.workload_cache_capacity),
      queue_(options_.queue_capacity) {
  SEHC_CHECK(!options_.socket_path.empty(), "Server: socket_path is empty");
  SEHC_CHECK(options_.threads > 0, "Server: need at least one solver thread");
}

Server::~Server() {
  if (started_.load() && !joined_.load()) {
    request_drain();
    join();
  }
}

void Server::start() {
  SEHC_CHECK(!started_.load(), "Server: start() called twice");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SEHC_CHECK(options_.socket_path.size() < sizeof addr.sun_path,
             "Server: socket path too long for sockaddr_un: " +
                 options_.socket_path);
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SEHC_CHECK(listen_fd_ >= 0,
             std::string("Server: socket() failed: ") + std::strerror(errno));
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    SEHC_CHECK(false, "Server: bind/listen('" + options_.socket_path +
                          "') failed: " + why);
  }

  started_.store(true);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    solver_threads_.emplace_back([this] { solver_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::request_drain() { draining_.store(true); }

void Server::join() {
  SEHC_CHECK(started_.load(), "Server: join() before start()");
  if (joined_.exchange(true)) return;

  // Shutdown order matters: connections stop admitting new work once
  // draining_ is set; after every connection thread has exited nothing can
  // push, so closing the queue lets the solver threads drain what remains
  // and exit. Every admitted request was solved before its connection
  // thread exited (the thread waited on the solve's promise), so the queue
  // is already empty here.
  if (accept_thread_.joinable()) accept_thread_.join();
  for (;;) {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      threads.swap(connection_threads_);
    }
    if (threads.empty()) break;
    for (std::thread& t : threads) t.join();
  }
  queue_.close();
  for (std::thread& t : solver_threads_) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

void Server::accept_loop() {
  while (!draining_.load()) {
    if (!poll_readable(listen_fd_, 100)) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;  // EINTR / racing shutdown
    connections_.fetch_add(1);
    if (open_connections_.load() >= options_.max_connections) {
      // Connection-level shedding: answer before the client blocks on us.
      ScheduleResponse resp;
      resp.status = ServeStatus::kOverloaded;
      resp.error = "connection limit reached";
      try {
        write_frame(fd, resp.serialize());
      } catch (const ProtocolError&) {
      }
      ::close(fd);
      shed_.fetch_add(1);
      continue;
    }
    open_connections_.fetch_add(1);
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connection_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void Server::connection_loop(int fd) {
  for (;;) {
    if (!poll_readable(fd, 100)) {
      if (draining_.load()) break;
      continue;
    }
    std::optional<std::string> payload;
    try {
      payload = read_frame(fd, options_.max_frame_bytes);
    } catch (const ProtocolError&) {
      // Framing is broken; the stream cannot be re-synchronized. Drop the
      // connection loudly (counted) rather than guessing at a boundary.
      protocol_errors_.fetch_add(1);
      break;
    }
    if (!payload) break;  // clean EOF
    try {
      handle_payload(fd, std::move(*payload));
    } catch (const ProtocolError&) {
      // Response write failed: peer vanished mid-reply.
      protocol_errors_.fetch_add(1);
      break;
    }
  }
  ::close(fd);
  open_connections_.fetch_sub(1);
}

void Server::handle_payload(int fd, std::string payload) {
  ScheduleRequest request;
  try {
    request = ScheduleRequest::parse(std::move(payload));
  } catch (const Error& e) {
    // Parseable frame, malformed request document: the stream is still in
    // sync, so answer with an error instead of dropping the connection.
    errors_.fetch_add(1);
    ScheduleResponse resp;
    resp.status = ServeStatus::kError;
    resp.error = e.what();
    write_frame(fd, resp.serialize());
    return;
  }
  requests_.fetch_add(1);
  if (request.op == "stats") {
    respond_stats(fd);
    return;
  }
  if (request.op == "metrics") {
    respond_metrics(fd);
    return;
  }
  handle_solve(fd, std::move(request));
}

void Server::handle_solve(int fd, ScheduleRequest request) {
  const Clock::time_point arrival = Clock::now();
  ScheduleResponse resp;

  // An unknown engine is answered before its body costs a parse, a cache
  // entry or an admission slot.
  if (find_scheduler(request.engine) == nullptr) {
    errors_.fetch_add(1);
    resp.status = ServeStatus::kError;
    resp.error = "unknown engine '" + request.engine + "'";
    write_frame(fd, resp.serialize());
    return;
  }

  // Recall (or parse) the body. The workload cache is keyed by the raw
  // document bytes: a repeated body skips the parse and the identity build
  // even when engine/seed/budget differ. Both caches key by std::hash, 8
  // bytes per step; ContentLru compares the full key on every hash match.
  std::shared_ptr<const ParsedBody> body;
  const std::uint64_t body_hash =
      std::hash<std::string_view>{}(request.workload_text);
  double parse_seconds = 0.0;
  try {
    if (auto cached = workload_cache_.lookup(body_hash,
                                             request.workload_text)) {
      body = *cached;
    } else {
      const Clock::time_point parse_start = Clock::now();
      body = std::make_shared<const ParsedBody>(request.workload_text);
      parse_seconds = sec_between(parse_start, Clock::now());
      metrics_.phase_record("request/parse", 1, 0, parse_seconds);
      // The parsed body travels on; the text is needed only as the key.
      workload_cache_.insert(body_hash, std::move(request.workload_text),
                             body);
    }
  } catch (const std::exception& e) {
    errors_.fetch_add(1);
    resp.status = ServeStatus::kError;
    resp.error = std::string("workload: ") + e.what();
    write_frame(fd, resp.serialize());
    return;
  }
  const Clock::time_point parsed = Clock::now();
  metrics_.phase_record("request/workload", 1, 0,
                        sec_between(arrival, parsed) - parse_seconds);

  // The response-cache key: the body's identity bytes, shared rather than
  // copied, and a tag of their hash and the request fields. Its hash reads
  // the tag alone.
  RequestKey key(body->identity, body->identity_hash,
                 request.canonical_fields());
  const std::uint64_t hash = key.hash();
  const Clock::time_point keyed = Clock::now();
  metrics_.phase_record("request/canonical", 1, 0,
                        sec_between(parsed, keyed));

  // Response cache: a hit IS the cold solve's deterministic bytes.
  const auto cached = cache_.lookup(hash, key);
  metrics_.phase_record("request/cache_lookup", 1, 0,
                        sec_between(keyed, Clock::now()));
  if (cached) {
    resp.status = ServeStatus::kOk;
    resp.makespan = cached->makespan;
    resp.evals = cached->evals;
    resp.steps = cached->steps;
    resp.schedule_csv = cached->schedule_csv;
    resp.cache_hit = true;
    completed_.fetch_add(1);
    write_frame(fd, resp.serialize());
    metrics_.hist_record("latency/request_us",
                         us_between(arrival, Clock::now()));
    return;
  }

  if (draining_.load()) {
    shed_.fetch_add(1);
    resp.status = ServeStatus::kOverloaded;
    resp.error = "server is draining";
    write_frame(fd, resp.serialize());
    return;
  }

  // Admission + single-flight under one lock: either attach to an in-flight
  // identical request, or register and enqueue a new entry. Holding the
  // lock across try_push keeps attach/shed races out.
  std::future<SolveOutcome> future;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto it = inflight_.find(hash);
    if (it != inflight_.end() && it->second->key == key) {
      it->second->promises.emplace_back();
      future = it->second->promises.back().get_future();
      coalesced_.fetch_add(1);
    } else {
      auto entry = std::make_shared<InFlight>();
      entry->hash = hash;
      entry->key = std::move(key);
      entry->request = std::move(request);
      entry->request.workload_text.clear();  // the parsed body travels instead
      entry->body = std::move(body);
      entry->promises.emplace_back();
      future = entry->promises.back().get_future();
      if (!queue_.try_push(entry)) {
        shed_.fetch_add(1);
        resp.status = ServeStatus::kOverloaded;
        resp.error = "admission queue full";
        write_frame(fd, resp.serialize());
        return;
      }
      inflight_[hash] = std::move(entry);
    }
  }

  const SolveOutcome outcome = future.get();
  if (!outcome.ok) {
    errors_.fetch_add(1);
    resp.status = ServeStatus::kError;
    resp.error = outcome.error;
    write_frame(fd, resp.serialize());
    return;
  }
  resp.status = ServeStatus::kOk;
  resp.makespan = outcome.result.makespan;
  resp.evals = outcome.result.evals;
  resp.steps = outcome.result.steps;
  resp.schedule_csv = outcome.result.schedule_csv;
  resp.timed_out = outcome.timed_out;
  // Per-request accounting: queue wait is from THIS request's arrival (a
  // coalesced rider waited less than the request that started the solve).
  resp.queue_ms = std::max(0.0, ms_between(arrival, outcome.solve_start));
  resp.solve_ms = ms_between(outcome.solve_start, outcome.solve_end);
  completed_.fetch_add(1);
  const Clock::time_point reply_start = Clock::now();
  write_frame(fd, resp.serialize());
  const Clock::time_point done = Clock::now();
  metrics_.phase_record("request/queue", 1, 0, resp.queue_ms / 1e3);
  metrics_.phase_record("request/reply", 1, 0, sec_between(reply_start, done));
  metrics_.hist_record("latency/queue_us",
                       static_cast<std::uint64_t>(resp.queue_ms * 1e3));
  metrics_.hist_record("latency/solve_us",
                       static_cast<std::uint64_t>(resp.solve_ms * 1e3));
  metrics_.hist_record("latency/request_us", us_between(arrival, done));
}

void Server::solver_loop() {
  std::shared_ptr<InFlight> entry;
  while (queue_.pop(entry)) {
    solve(entry);
    entry.reset();  // an idle thread holds no request
  }
}

void Server::solve(const std::shared_ptr<InFlight>& entry) {
  SolveOutcome outcome;
  outcome.solve_start = Clock::now();
  // Ambient registry for the duration of the solve: run_search flushes its
  // per-engine step/eval/improvement counters and engine span in here.
  const MetricsScope metrics_scope(&metrics_);
  try {
    const ScheduleRequest& req = entry->request;
    const Workload& workload = entry->body->workload;
    // The engine lives exactly as long as this solve: nothing of it, a
    // preempted run included, survives into the next solve.
    const std::unique_ptr<SearchEngine> engine = make_search_engine(
        req.engine, workload, req.budget, req.seed);

    Deadline deadline;
    if (req.deadline_ms > 0.0) {
      deadline = Deadline::after(req.deadline_ms / 1000.0);
    } else if (options_.default_deadline_seconds > 0.0) {
      deadline = Deadline::after(options_.default_deadline_seconds);
    }

    const SearchResult result = run_search(*engine, req.budget, {}, deadline);
    const std::vector<std::string> violations =
        validate_schedule(workload, result.schedule);
    SEHC_CHECK(violations.empty(),
               "engine produced an invalid schedule: " + violations.front());

    std::ostringstream csv;
    write_schedule_csv(csv, workload, result.schedule);
    outcome.ok = true;
    outcome.timed_out = result.timed_out;
    outcome.result.makespan = result.best_makespan;
    outcome.result.evals = result.evals;
    outcome.result.steps = result.steps;
    outcome.result.schedule_csv = csv.str();
    if (result.timed_out) timeouts_.fetch_add(1);
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.error = e.what();
  }
  outcome.solve_end = Clock::now();
  // One solve span per actual solve (riders share it); rounds = steps.
  metrics_.phase_record("request/solve", 1,
                        outcome.ok ? outcome.result.steps : 0,
                        sec_between(outcome.solve_start, outcome.solve_end));

  // Cache before unregistering so a request arriving in the gap either
  // attaches (pre-erase) or hits the cache (post-insert) — never re-solves.
  if (outcome.ok && !outcome.timed_out) {
    cache_.insert(entry->hash, entry->key, outcome.result);
  }
  std::vector<std::promise<SolveOutcome>> promises;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(entry->hash);
    promises = std::move(entry->promises);
  }
  for (std::promise<SolveOutcome>& p : promises) p.set_value(outcome);
}

void Server::respond_stats(int fd) {
  const ServerStats s = stats_snapshot();
  ScheduleResponse resp;
  resp.status = ServeStatus::kOk;
  auto add = [&resp](const char* key, std::uint64_t value) {
    resp.extra.emplace_back(key, std::to_string(value));
  };
  add("connections", s.connections);
  add("requests", s.requests);
  add("completed", s.completed);
  add("shed", s.shed);
  add("errors", s.errors);
  add("timeouts", s.timeouts);
  add("protocol_errors", s.protocol_errors);
  add("serve_cache_hits", s.cache_hits);
  add("serve_cache_misses", s.cache_misses);
  add("serve_cache_size", s.cache_size);
  add("coalesced", s.coalesced);
  add("workload_cache_hits", s.workload_cache_hits);
  add("queue_depth", s.queue_depth);
  add("queue_peak", s.queue_peak);
  add("draining", s.draining ? 1 : 0);
  completed_.fetch_add(1);
  write_frame(fd, resp.serialize());
}

void Server::respond_metrics(int fd) {
  // The registry snapshot flattened to key=value lines, one per scalar:
  // "counter.<name>", "gauge.<name>", "hist.<name>.<stat>",
  // "phase.<path>.<stat>". Every value is a bare number, so clients can
  // embed the document in JSON without quoting; the only non-integer
  // fields are the volatile "phase.*.ms" ones.
  const MetricsSnapshot snap = metrics_.snapshot();
  ScheduleResponse resp;
  resp.status = ServeStatus::kOk;
  auto add = [&resp](std::string key, std::uint64_t value) {
    resp.extra.emplace_back(std::move(key), std::to_string(value));
  };
  for (const auto& [name, value] : snap.counters) {
    add("counter." + name, value);
  }
  for (const auto& [name, value] : snap.gauges) {
    add("gauge." + name, value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string prefix = "hist." + name;
    add(prefix + ".count", hist.count());
    add(prefix + ".sum", hist.sum());
    add(prefix + ".min", hist.min());
    add(prefix + ".max", hist.max());
    add(prefix + ".p50", hist.quantile(0.50));
    add(prefix + ".p90", hist.quantile(0.90));
    add(prefix + ".p99", hist.quantile(0.99));
  }
  for (const auto& [path, stats] : snap.phases) {
    const std::string prefix = "phase." + path;
    add(prefix + ".visits", stats.visits);
    add(prefix + ".rounds", stats.rounds);
    resp.extra.emplace_back(prefix + ".ms",
                            format_fixed(stats.seconds * 1e3, 3));
  }
  completed_.fetch_add(1);
  write_frame(fd, resp.serialize());
}

ServerStats Server::stats_snapshot() const {
  ServerStats s;
  s.connections = connections_.load();
  s.requests = requests_.load();
  s.completed = completed_.load();
  s.shed = shed_.load();
  s.errors = errors_.load();
  s.timeouts = timeouts_.load();
  s.protocol_errors = protocol_errors_.load();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_size = cache_.size();
  s.coalesced = coalesced_.load();
  s.workload_cache_hits = workload_cache_.hits();
  s.queue_depth = queue_.depth();
  s.queue_peak = queue_.peak_depth();
  s.draining = draining_.load();
  return s;
}

}  // namespace sehc
