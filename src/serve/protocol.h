// Wire protocol of the scheduling service (tools/sehc_serve).
//
// Transport: a local SOCK_STREAM Unix-domain socket carrying length-prefixed
// frames. Each frame is one ASCII header line
//
//   SEHC1 <payload-bytes>\n
//
// followed by exactly that many payload bytes. The prefix makes framing
// unambiguous for payloads that themselves contain newlines (workload
// documents, schedule CSVs); the text header keeps the stream inspectable
// with socat/strace. Malformed input — wrong magic, non-numeric or oversized
// length, EOF mid-header or mid-payload — raises ProtocolError loudly
// instead of desynchronizing; the server answers by closing the connection
// (once framing is broken the stream cannot be trusted).
//
// Payloads are key=value documents:
//
//   sehc-request v1              sehc-response v1
//   op=solve                     status=ok | overloaded | error
//   engine=SE                    makespan=... evals=... steps=...
//   seed=42                      timed_out=0|1 cache_hit=0|1
//   budget=evals:20000           queue_ms=... solve_ms=...
//   deadline_ms=250              <extra k=v lines (stats endpoint)>
//   workload:                    schedule:
//   <sehc-workload v1 document>  task,name,machine,start,finish CSV
//                                ...
//
// Request identity (the response-cache key) is canonical_string(): the
// workload's identity bytes (workload_identity), then engine/seed/budget
// in fixed order (canonical_fields()). The server never builds that
// string: its RequestKey (serve/cache.h) shares the parsed body's identity
// bytes and compares them and the fields apart, with the same outcome. The
// identity bytes are the parsed workload's counts, arch tags, task names,
// edges and the bit patterns of its matrices. Two documents get equal
// identities exactly when workload_to_string gives them equal text:
// "%.17g" round-trips every finite double and keeps -0 apart from 0, the
// reader rejects inf and nan, and a task name the text omits is the
// default s<id> the parser restores.
// So formatting differences in the submitted document cannot split the
// cache, and the key costs no number formatting. The key lives only in the
// server's memory: it is hashed with std::hash, never persisted.
// deadline_ms is deliberately excluded — a deadline bounds how long the
// caller waits, not what the fully-solved answer is, so a cached complete
// answer may legitimately serve a later deadline-limited request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "hc/workload.h"
#include "search/engine.h"

namespace sehc {

/// Malformed frame or payload: wrong magic, bad length, truncated stream.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

// --- Framing ---------------------------------------------------------------

/// Hard cap every reader enforces; requests carrying full workload matrices
/// for paper-scale instances are well under 1 MiB.
constexpr std::size_t kMaxFrameBytes = 16u << 20;

/// Writes one frame whose payload is `payload` followed by `tail` to a
/// socket fd: the same bytes as write_frame(fd, payload + tail), without
/// joining the two (a request's head and its workload document go out
/// as they are). Throws ProtocolError when the peer is gone
/// (EPIPE/ECONNRESET) or on any other write failure.
void write_frame(int fd, std::string_view payload, std::string_view tail = {});

/// Reads one frame from a socket fd. Returns std::nullopt on clean EOF
/// (connection closed between frames); throws ProtocolError on malformed
/// headers, payloads larger than `max_bytes`, or EOF mid-frame. The payload
/// buffer is sized as its bytes arrive (64 KiB, then doubling, capped at
/// the announced length), so it commits at most 64 KiB or twice the bytes
/// received, whatever length the header announces.
std::optional<std::string> read_frame(int fd,
                                      std::size_t max_bytes = kMaxFrameBytes);

/// Connects to a Unix-domain socket path. Throws ProtocolError on failure
/// (absent socket, path too long for sockaddr_un, refused connection).
int connect_unix(const std::string& path);

// --- Requests --------------------------------------------------------------

struct ScheduleRequest {
  /// "solve" answers with a schedule; "stats" answers with the server's
  /// counters in the response's extra fields (no workload needed);
  /// "metrics" answers with the flattened observability-registry snapshot
  /// (phase timings, latency histograms, engine counters) the same way.
  std::string op = "solve";
  /// A scheduler registry name ("SE", "GA", ..., "HEFT", "MinMin", ...; see
  /// heuristics/scheduler.h).
  std::string engine = "SE";
  std::uint64_t seed = 1;
  Budget budget = Budget::steps(150);
  /// Caller latency bound in milliseconds (0 = none): the solve is
  /// preempted by a Deadline when it expires and answered with the
  /// incumbent best() plus timed_out=1.
  double deadline_ms = 0.0;
  /// A "sehc-workload v1" document (hc/workload_io.h). Required for solve.
  std::string workload_text;

  /// The payload up to the workload document: the magic, the fields and,
  /// when there is a workload, the `workload:` marker line.
  std::string serialize_head() const;
  /// serialize_head() + workload_text: the whole payload.
  std::string serialize() const;
  /// Throws ProtocolError on unknown keys, missing sections or bad values.
  /// Takes the payload by value: the workload section keeps its buffer
  /// (the head lines are erased in place), so a moved-in frame is never
  /// copied.
  static ScheduleRequest parse(std::string payload);

  /// "steps:N" / "evals:N" / "seconds:S" <-> Budget.
  static std::string budget_token(const Budget& budget);
  static Budget parse_budget_token(const std::string& token);

  /// The request fields of the identity, in fixed order: engine, seed,
  /// budget (deadline excluded; see file header).
  std::string canonical_fields() const;
  /// Canonical identity string (see file header): `identity`, the
  /// workload_identity() bytes of the request's workload, followed by
  /// canonical_fields().
  std::string canonical_string(const std::string& identity) const;
};

/// The workload's identity bytes (see file header), in fixed-width native
/// encoding, each count before its items: the machine count and every
/// machine's arch; the task count and every task name, length-prefixed;
/// the edge count and every edge's (src, dst) in edge order; the bit
/// patterns of the exec and transfer matrices.
std::string workload_identity(const Workload& workload);

// --- Responses -------------------------------------------------------------

enum class ServeStatus { kOk, kOverloaded, kError };

const char* to_string(ServeStatus status);

struct ScheduleResponse {
  ServeStatus status = ServeStatus::kOk;
  /// Human-readable cause for kError (and the "draining" overload note).
  std::string error;
  double makespan = 0.0;
  std::uint64_t evals = 0;
  /// Engine steps of the solve that produced the schedule.
  std::uint64_t steps = 0;
  /// Deadline preempted the solve; the schedule is the incumbent best.
  bool timed_out = false;
  /// Served from the response cache (bit-identical to the cold solve).
  bool cache_hit = false;
  /// Milliseconds between admission and the solve starting (0 on hits).
  double queue_ms = 0.0;
  /// Milliseconds the solve itself took (0 on hits).
  double solve_ms = 0.0;
  /// Additional key=value pairs (the stats endpoint's counters), emitted in
  /// the order given.
  std::vector<std::pair<std::string, std::string>> extra;
  /// write_schedule_csv document (empty for stats/error responses).
  std::string schedule_csv;

  std::string serialize() const;
  /// By value, like ScheduleRequest::parse: the schedule section keeps the
  /// payload's buffer.
  static ScheduleResponse parse(std::string payload);
};

/// One round-trip: write the request frame (serialize_head(), then the
/// workload text, as one frame without joining them), read the response
/// frame. Throws ProtocolError on transport failure or a connection closed
/// before the response arrived.
ScheduleResponse call_server(int fd, const ScheduleRequest& request);

}  // namespace sehc
