#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>

#include "core/options.h"
#include "core/table.h"

namespace sehc {

namespace {

constexpr const char* kFrameMagic = "SEHC1 ";
constexpr const char* kRequestMagic = "sehc-request v1";
constexpr const char* kResponseMagic = "sehc-response v1";

[[noreturn]] void proto_fail(const std::string& what) {
  throw ProtocolError("serve protocol: " + what);
}

std::string errno_text() { return std::strerror(errno); }

/// Writes every part, in order, retrying on EINTR / short writes; one
/// sendmsg() per attempt gathers what is left. MSG_NOSIGNAL: a vanished
/// peer must surface as ProtocolError, not SIGPIPE.
void send_all(int fd, std::span<iovec> parts) {
  std::size_t next = 0;
  for (;;) {
    while (next < parts.size() && parts[next].iov_len == 0) ++next;
    if (next == parts.size()) return;
    msghdr msg{};
    msg.msg_iov = parts.data() + next;
    msg.msg_iovlen = parts.size() - next;
    const ssize_t wrote = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      proto_fail("send failed: " + errno_text());
    }
    for (auto left = static_cast<std::size_t>(wrote); left > 0;) {
      const std::size_t step = std::min(left, parts[next].iov_len);
      parts[next].iov_base = static_cast<char*>(parts[next].iov_base) + step;
      parts[next].iov_len -= step;
      left -= step;
      if (parts[next].iov_len == 0) ++next;
    }
  }
}

/// One recv(): the bytes read (at most n), or 0 at EOF. Retries EINTR.
/// With MSG_PEEK the bytes stay queued.
std::size_t recv_some(int fd, char* data, std::size_t n, int flags = 0) {
  for (;;) {
    const ssize_t r = ::recv(fd, data, n, flags);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno != EINTR) proto_fail(std::string("recv failed: ") + errno_text());
  }
}

/// read_frame() sizes a payload buffer as its bytes arrive: first
/// kFirstPayloadChunk bytes, then double the bytes received, capped at the
/// announced length. Only sized bytes are written (zero-filled), so only
/// they commit memory. Capacity for up to kPayloadReserve bytes is
/// reserved at the start (address space; its pages are touched only as the
/// size grows), so a frame of that size is received without a copy.
constexpr std::size_t kFirstPayloadChunk = 64u << 10;
constexpr std::size_t kPayloadReserve = 1u << 20;

double parse_double_field(const std::string& value, const std::string& key) {
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(value.c_str(), &end);
  // strtod sets ERANGE for a subnormal result too, which serialize() writes
  // for a subnormal makespan. Only overflow and underflow to zero fail.
  const bool subnormal =
      d != 0.0 && std::fabs(d) < std::numeric_limits<double>::min();
  if (value.empty() || end != value.c_str() + value.size() ||
      (errno == ERANGE && !subnormal)) {
    proto_fail("bad numeric value '" + value + "' for " + key);
  }
  return d;
}

std::uint64_t parse_u64_field(const std::string& value,
                              const std::string& key) {
  if (const auto v = parse_whole<std::uint64_t>(value)) return *v;
  proto_fail("bad unsigned value '" + value + "' for " + key);
}

bool parse_bool_field(const std::string& value, const std::string& key) {
  if (value == "0") return false;
  if (value == "1") return true;
  proto_fail("bad boolean value '" + value + "' for " + key);
}

/// Splits a payload into leading "key=value" lines and an optional tail
/// section introduced by `section_marker` (e.g. "workload:"); the tail is
/// everything after the marker line, verbatim. The section takes over the
/// payload's buffer: the head lines are erased in place, not copied out.
struct KvDocument {
  std::vector<std::pair<std::string, std::string>> fields;
  std::string section;
};

KvDocument parse_kv_document(std::string payload, std::string_view magic,
                             std::string_view section_marker) {
  KvDocument doc;
  const std::string_view text(payload);
  std::size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const bool last = eol == std::string_view::npos;
    const std::string_view line =
        text.substr(pos, last ? std::string_view::npos : eol - pos);
    if (first) {
      if (line != magic) {
        proto_fail("expected '" + std::string(magic) + "' header, got '" +
                   std::string(line) + "'");
      }
      first = false;
    } else if (line == section_marker) {
      payload.erase(0, last ? payload.size() : eol + 1);
      doc.section = std::move(payload);
      return doc;
    } else if (!line.empty()) {
      const std::size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        proto_fail("malformed line '" + std::string(line) +
                   "' (expected key=value)");
      }
      doc.fields.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
    if (last) break;
    pos = eol + 1;
  }
  return doc;
}

}  // namespace

// --- Framing ---------------------------------------------------------------

void write_frame(int fd, std::string_view payload, std::string_view tail) {
  char header[32];
  const int len = std::snprintf(header, sizeof header, "%s%zu\n", kFrameMagic,
                                payload.size() + tail.size());
  iovec parts[] = {
      {header, static_cast<std::size_t>(len)},
      {const_cast<char*>(payload.data()), payload.size()},
      {const_cast<char*>(tail.data()), tail.size()},
  };
  send_all(fd, parts);
}

std::optional<std::string> read_frame(int fd, std::size_t max_bytes) {
  // Header: up to the newline, bounded at 32 bytes — enough for the magic
  // plus any length within the frame cap — so garbage input fails fast
  // instead of scanning an unbounded stream for '\n'. Each round peeks at
  // what has arrived within the bound and consumes it through the '\n' (or
  // all of it when no '\n' has arrived yet), so the payload's bytes stay
  // queued and a header whose bytes are all there costs two recv()s.
  char header[32];
  std::size_t len = 0;
  const char* newline = nullptr;
  while (newline == nullptr) {
    if (len == sizeof header) proto_fail("frame header too long");
    const std::size_t seen =
        recv_some(fd, header + len, sizeof header - len, MSG_PEEK);
    if (seen == 0) {
      if (len == 0) return std::nullopt;  // clean EOF between frames
      proto_fail("connection closed mid-frame header");
    }
    newline = static_cast<const char*>(std::memchr(header + len, '\n', seen));
    const std::size_t end =
        newline != nullptr ? static_cast<std::size_t>(newline - header) + 1
                           : len + seen;
    // The peeked bytes are queued, so a recv() returns them at once.
    for (std::size_t got; len < end; len += got) {
      got = recv_some(fd, header + len, end - len);
      if (got == 0) proto_fail("connection closed mid-frame header");
    }
  }
  const std::string_view head(header, len - 1);
  const std::string_view magic(kFrameMagic);
  if (head.substr(0, magic.size()) != magic) {
    proto_fail("bad frame magic (expected 'SEHC1 ')");
  }
  const std::string count(head.substr(magic.size()));
  const std::uint64_t payload_len = parse_u64_field(count, "frame length");
  if (payload_len > max_bytes) {
    proto_fail("frame of " + std::to_string(payload_len) +
               " bytes exceeds the " + std::to_string(max_bytes) +
               "-byte limit");
  }
  // The buffer grows only as bytes arrive: a header announcing 16 MiB and
  // then stalling commits kFirstPayloadChunk bytes, not 16 MiB.
  std::string payload;
  payload.reserve(std::min<std::size_t>(payload_len, kPayloadReserve));
  std::size_t got = 0;
  while (got < payload_len) {
    if (got == payload.size()) {
      payload.resize(std::min<std::size_t>(
          payload_len, std::max(kFirstPayloadChunk, 2 * got)));
    }
    const std::size_t r =
        recv_some(fd, payload.data() + got, payload.size() - got);
    if (r == 0) {
      proto_fail("connection closed mid-frame payload (got " +
                 std::to_string(got) + " of " + std::to_string(payload_len) +
                 " bytes)");
    }
    got += r;
  }
  return payload;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    proto_fail("socket path '" + path + "' is empty or too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) proto_fail("socket() failed: " + errno_text());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string why = errno_text();
    ::close(fd);
    proto_fail("connect('" + path + "') failed: " + why);
  }
  return fd;
}

// --- Requests --------------------------------------------------------------

std::string ScheduleRequest::budget_token(const Budget& budget) {
  switch (budget.kind) {
    case Budget::Kind::kSteps:
      return "steps:" + std::to_string(budget.count);
    case Budget::Kind::kEvals:
      return "evals:" + std::to_string(budget.count);
    case Budget::Kind::kSeconds:
      // Fixed 6-decimal form: the token is hashed into the request
      // identity, so formatting must be canonical (same discipline as
      // CampaignSpec::canonical_string).
      return "seconds:" + format_fixed(budget.wall_seconds, 6);
  }
  return "?";
}

Budget ScheduleRequest::parse_budget_token(const std::string& token) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) {
    proto_fail("bad budget '" + token + "' (expected kind:value)");
  }
  const std::string kind = token.substr(0, colon);
  const std::string value = token.substr(colon + 1);
  Budget budget;
  if (kind == "steps") {
    budget = Budget::steps(parse_u64_field(value, "budget steps"));
  } else if (kind == "evals") {
    budget = Budget::evals(parse_u64_field(value, "budget evals"));
  } else if (kind == "seconds") {
    budget = Budget::seconds(parse_double_field(value, "budget seconds"));
  } else {
    proto_fail("unknown budget kind '" + kind + "'");
  }
  try {
    budget.validate();
  } catch (const Error& e) {
    proto_fail("invalid budget '" + token + "': " + e.what());
  }
  return budget;
}

std::string ScheduleRequest::serialize_head() const {
  std::string out;
  out.reserve(192);
  out.append(kRequestMagic).append("\nop=").append(op);
  out.append("\nengine=").append(engine);
  out.append("\nseed=").append(std::to_string(seed));
  out.append("\nbudget=").append(budget_token(budget));
  out.append("\ndeadline_ms=").append(format_fixed(deadline_ms, 3));
  out += '\n';
  if (!workload_text.empty()) out.append("workload:\n");
  return out;
}

std::string ScheduleRequest::serialize() const {
  return serialize_head().append(workload_text);
}

ScheduleRequest ScheduleRequest::parse(std::string payload) {
  KvDocument doc =
      parse_kv_document(std::move(payload), kRequestMagic, "workload:");
  ScheduleRequest req;
  for (const auto& [key, value] : doc.fields) {
    if (key == "op") {
      if (value != "solve" && value != "stats" && value != "metrics") {
        proto_fail("unknown op '" + value + "'");
      }
      req.op = value;
    } else if (key == "engine") {
      req.engine = value;
    } else if (key == "seed") {
      req.seed = parse_u64_field(value, key);
    } else if (key == "budget") {
      req.budget = parse_budget_token(value);
    } else if (key == "deadline_ms") {
      req.deadline_ms = parse_double_field(value, key);
      if (req.deadline_ms < 0.0) proto_fail("deadline_ms must be >= 0");
    } else {
      proto_fail("unknown request field '" + key + "'");
    }
  }
  req.workload_text = std::move(doc.section);
  if (req.op == "solve" && req.workload_text.empty()) {
    proto_fail("solve request carries no workload section");
  }
  return req;
}

std::string ScheduleRequest::canonical_fields() const {
  std::string out;
  out.reserve(128);
  out.append("sehc-serve-request v1\nengine=").append(engine);
  out.append("\nseed=").append(std::to_string(seed));
  out.append("\nbudget=").append(budget_token(budget));
  out += '\n';
  return out;
}

std::string ScheduleRequest::canonical_string(
    const std::string& identity) const {
  return identity + canonical_fields();
}

namespace {

/// Appends the object representation of `value` (fixed width, native).
template <typename T>
void append_bits(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

void append_matrix_bits(std::string& out, const Matrix<double>& m) {
  const std::span<const double> flat = m.flat();
  out.append(reinterpret_cast<const char*>(flat.data()), flat.size_bytes());
}

}  // namespace

std::string workload_identity(const Workload& workload) {
  const TaskGraph& g = workload.graph();
  std::size_t names = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) names += g.name(t).size();
  std::string out;
  out.reserve(3 * sizeof(std::uint64_t) +
              workload.num_machines() * sizeof(std::uint32_t) +
              g.num_tasks() * sizeof(std::uint64_t) + names +
              g.num_edges() * 2 * sizeof(TaskId) +
              (workload.exec_matrix().size() +
               workload.transfer_matrix().size()) *
                  sizeof(double));

  append_bits(out, static_cast<std::uint64_t>(workload.num_machines()));
  for (MachineId m = 0; m < workload.num_machines(); ++m) {
    append_bits(out, static_cast<std::uint32_t>(workload.machines()[m].arch));
  }
  append_bits(out, static_cast<std::uint64_t>(g.num_tasks()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const std::string& name = g.name(t);
    append_bits(out, static_cast<std::uint64_t>(name.size()));
    out.append(name);
  }
  append_bits(out, static_cast<std::uint64_t>(g.num_edges()));
  for (const DagEdge& e : g.edges()) {
    append_bits(out, e.src);
    append_bits(out, e.dst);
  }
  // The matrices' shapes follow from the counts above.
  append_matrix_bits(out, workload.exec_matrix());
  append_matrix_bits(out, workload.transfer_matrix());
  return out;
}

// --- Responses -------------------------------------------------------------

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kError:
      return "error";
  }
  return "?";
}

std::string ScheduleResponse::serialize() const {
  std::ostringstream os;
  os << kResponseMagic << '\n';
  os << "status=" << to_string(status) << '\n';
  if (!error.empty()) {
    // The payload is line-oriented; fold any newlines an exception message
    // might carry.
    std::string flat = error;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    os << "error=" << flat << '\n';
  }
  char makespan_text[kG17MaxChars];
  os << "makespan=";
  os.write(makespan_text, write_g17(makespan_text, makespan) - makespan_text);
  os << '\n';
  os << "evals=" << evals << '\n';
  os << "steps=" << steps << '\n';
  os << "timed_out=" << (timed_out ? 1 : 0) << '\n';
  os << "cache_hit=" << (cache_hit ? 1 : 0) << '\n';
  os << "queue_ms=" << format_fixed(queue_ms, 3) << '\n';
  os << "solve_ms=" << format_fixed(solve_ms, 3) << '\n';
  for (const auto& [key, value] : extra) {
    os << key << '=' << value << '\n';
  }
  if (!schedule_csv.empty()) {
    os << "schedule:\n" << schedule_csv;
  }
  return os.str();
}

ScheduleResponse ScheduleResponse::parse(std::string payload) {
  KvDocument doc =
      parse_kv_document(std::move(payload), kResponseMagic, "schedule:");
  ScheduleResponse resp;
  bool saw_status = false;
  for (const auto& [key, value] : doc.fields) {
    if (key == "status") {
      if (value == "ok") {
        resp.status = ServeStatus::kOk;
      } else if (value == "overloaded") {
        resp.status = ServeStatus::kOverloaded;
      } else if (value == "error") {
        resp.status = ServeStatus::kError;
      } else {
        proto_fail("unknown status '" + value + "'");
      }
      saw_status = true;
    } else if (key == "error") {
      resp.error = value;
    } else if (key == "makespan") {
      resp.makespan = parse_double_field(value, key);
    } else if (key == "evals") {
      resp.evals = parse_u64_field(value, key);
    } else if (key == "steps") {
      resp.steps = parse_u64_field(value, key);
    } else if (key == "timed_out") {
      resp.timed_out = parse_bool_field(value, key);
    } else if (key == "cache_hit") {
      resp.cache_hit = parse_bool_field(value, key);
    } else if (key == "queue_ms") {
      resp.queue_ms = parse_double_field(value, key);
    } else if (key == "solve_ms") {
      resp.solve_ms = parse_double_field(value, key);
    } else {
      resp.extra.emplace_back(key, value);
    }
  }
  if (!saw_status) proto_fail("response carries no status field");
  resp.schedule_csv = std::move(doc.section);
  return resp;
}

ScheduleResponse call_server(int fd, const ScheduleRequest& request) {
  write_frame(fd, request.serialize_head(), request.workload_text);
  std::optional<std::string> payload = read_frame(fd);
  if (!payload) {
    proto_fail("connection closed before a response arrived");
  }
  return ScheduleResponse::parse(std::move(*payload));
}

}  // namespace sehc
