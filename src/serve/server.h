// The scheduling service: a long-running server answering schedule requests
// over a Unix-domain socket (see serve/protocol.h for the wire format).
//
// Request path:
//
//   connection thread                          solver thread (x threads)
//   -----------------                          -------------------------
//   read frame, parse request in place
//     (the workload text keeps the
//     frame's buffer)
//   workload: key_hash64 the body,
//     look it up (LRU by body);
//     on a miss, parse it and build
//     its identity bytes (shared) and
//     their key_hash64, once per parse
//   request key: the body's identity
//     (shared, not copied) + a tag of
//     the identity hash and the
//     request fields; key_hash64 of
//     the tag
//   response cache lookup --hit--> reply (bit-identical to the cold solve)
//     (keys compare tags, then the
//     identities: pointer first,
//     bytes only when they differ)
//   single-flight: identical
//     request already in flight? --> attach, wait  <------ fulfil promises
//   admission: bounded queue;
//     full -> reply `overloaded`
//   wait on promise                            pop() when free,
//                                              build engine,
//                                              run_search with
//                                              Deadline armed,
//                                              render schedule,
//                                              cache, fulfil
//
// Production properties this file owns:
//   * admission control — at most queue_capacity requests wait, and a
//     solver thread takes a request off the queue only when it starts
//     solving it, so at most threads + queue_capacity requests are admitted
//     at once; excess load is shed with an immediate `overloaded` reply
//     instead of queueing into unbounded latency;
//   * single-flight coalescing — concurrent identical requests (same
//     content hash) ride one solve and each get their own response;
//   * response caching — ContentLru keyed by the request identity (a
//     RequestKey: the workload's identity bytes, shared with the parsed
//     body, plus the request fields; compared in full on every hash
//     match); hits are bit-identical to the cold solve
//     (deterministic fields are cached verbatim). Timed-out solves are
//     never cached: their incumbent depends on wall clock, and the next
//     identical request deserves a full solve;
//   * deadline preemption — every solve runs under run_search with the
//     request's Deadline armed, so an expired deadline answers early with
//     the incumbent best() and timed_out=1;
//   * solve isolation — solver threads hold no solve state: every solve
//     builds its own engine and drops it when the solve ends, so nothing of
//     one solve (a preempted run included) reaches the next;
//   * graceful drain — request_drain() (the daemon wires SIGTERM to it)
//     stops accepting work, completes every admitted request, then stops
//     the solver threads; join() returns once the last response is written.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hc/workload.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace sehc {

struct ServeOptions {
  /// Unix-domain socket path to bind (must fit sockaddr_un; an existing
  /// socket file is replaced).
  std::string socket_path;
  /// Solver threads (= concurrent solves).
  std::size_t threads = 2;
  /// Admission bound: requests waiting for a solver thread beyond the ones
  /// being solved. Full queue => `overloaded` reply.
  std::size_t queue_capacity = 64;
  /// Response-cache entries (0 disables caching).
  std::size_t cache_capacity = 512;
  /// Parsed-workload cache entries (0 disables).
  std::size_t workload_cache_capacity = 64;
  /// Concurrent client connections; excess connections get an immediate
  /// `overloaded` reply and are closed.
  std::size_t max_connections = 128;
  /// Deadline armed for requests that do not carry their own (0 = none).
  double default_deadline_seconds = 0.0;
  /// Per-frame payload cap.
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

/// Snapshot of the server's counters (the `stats` endpoint serializes it).
struct ServerStats {
  std::uint64_t connections = 0;      // accepted so far
  std::uint64_t requests = 0;         // frames parsed as requests
  std::uint64_t completed = 0;        // responses with status=ok
  std::uint64_t shed = 0;             // overloaded replies (queue full/drain)
  std::uint64_t errors = 0;           // status=error replies
  std::uint64_t timeouts = 0;         // solves preempted by a Deadline
  std::uint64_t protocol_errors = 0;  // malformed frames (connection dropped)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Lookups whose key hash matched an entry with another key (served as a
  // miss); a nonzero count means key_hash64 collided.
  std::uint64_t cache_collisions = 0;
  std::uint64_t coalesced = 0;        // requests that rode another's solve
  std::uint64_t workload_cache_hits = 0;
  std::uint64_t workload_cache_collisions = 0;
  std::size_t cache_size = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  bool draining = false;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  /// Joins everything (drains first if still running).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and starts the accept loop and the solver threads.
  /// Throws sehc::Error / ProtocolError on bind failure.
  void start();

  /// Initiates graceful drain: stop accepting connections and admitting
  /// solves, finish every admitted request, write its response, then shut
  /// down. Safe to call from a signal-watching thread; idempotent.
  void request_drain();

  /// Blocks until the drained server has fully shut down.
  void join();

  const ServeOptions& options() const { return options_; }
  bool draining() const { return draining_.load(); }
  ServerStats stats_snapshot() const;
  /// Observability registry: per-request phase timings (workload lookup,
  /// parse on a workload-cache miss, canonical key, cache lookup, queue,
  /// solve, reply), server-wide latency
  /// histograms, and the engine counters run_search flushes from solve
  /// slots. The `metrics` endpoint serializes snapshots of it.
  MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

 private:
  struct InFlight;
  struct ParsedBody;

  void accept_loop();
  void connection_loop(int fd);
  void solver_loop();
  /// Handles one frame's payload on a connection; writes exactly one
  /// response.
  void handle_payload(int fd, std::string payload);
  void handle_solve(int fd, ScheduleRequest request);
  void respond_stats(int fd);
  void respond_metrics(int fd);
  void solve(const std::shared_ptr<InFlight>& entry);

  ServeOptions options_;
  int listen_fd_ = -1;

  ResponseCache cache_;
  ContentLru<std::shared_ptr<const ParsedBody>> workload_cache_;
  BoundedQueue<std::shared_ptr<InFlight>> queue_;

  // Admitted misses by RequestKey::hash(); attach only on an equal key.
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
  std::mutex inflight_mutex_;

  std::thread accept_thread_;
  std::vector<std::thread> solver_threads_;
  std::vector<std::thread> connection_threads_;  // guarded by conn_mutex_
  std::mutex conn_mutex_;
  std::atomic<std::size_t> open_connections_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> joined_{false};

  // Counters (see ServerStats).
  std::atomic<std::uint64_t> connections_{0}, requests_{0}, completed_{0},
      shed_{0}, errors_{0}, timeouts_{0}, protocol_errors_{0}, coalesced_{0};

  // Phase timings and latency histograms (see metrics_snapshot()).
  MetricsRegistry metrics_;
};

}  // namespace sehc
