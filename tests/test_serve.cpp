// Serving-layer tests: wire protocol round-trips and rejections, the
// content-hash LRU, the bounded admission queue, and end-to-end Server
// behaviour (cache hits bit-identical to cold solves, deadline preemption,
// overload shedding, coalescing, graceful drain, and the preempted-slot
// hygiene regression).
#include <pthread.h>
#include <sys/socket.h>

#include <cerrno>
#include <csignal>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/content_hash.h"
#include "exp/trace_io.h"
#include "hc/workload_io.h"
#include "heuristics/scheduler.h"
#include "search/engine.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/generator.h"
#include "workload/params.h"

namespace sehc {
namespace {

// --- Helpers ---------------------------------------------------------------

/// A connected AF_UNIX stream pair; both ends close on destruction.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
};

std::string small_workload_text(std::uint64_t seed, std::size_t tasks = 12,
                                std::size_t machines = 3) {
  WorkloadParams params;
  params.tasks = tasks;
  params.machines = machines;
  params.seed = seed;
  return workload_to_string(make_workload(params));
}

/// Unique short socket path per call (sockaddr_un limits path length).
std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/sehc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

ScheduleRequest solve_request(const std::string& workload_text,
                              const std::string& engine = "SE",
                              std::uint64_t seed = 7,
                              Budget budget = Budget::steps(8)) {
  ScheduleRequest req;
  req.engine = engine;
  req.seed = seed;
  req.budget = budget;
  req.workload_text = workload_text;
  return req;
}

/// The same workload document with its exec numbers written the way a
/// hand-edited file might carry them: a leading '+', a trailing zero on
/// plain decimals, extra blanks. It parses to the same workload but is a
/// different byte string.
std::string reformat_exec(const std::string& text) {
  const std::size_t begin = text.find("\nexec\n") + 6;
  const std::size_t end = std::min(text.find("transfer\n", begin), text.size());
  std::string out = text.substr(0, begin);
  std::istringstream rows(text.substr(begin, end - begin));
  std::string row;
  while (std::getline(rows, row)) {
    std::istringstream tokens(row);
    std::string token;
    out += "  ";
    while (tokens >> token) {
      if (token.find('.') != std::string::npos &&
          token.find('e') == std::string::npos) {
        token += '0';
      }
      out += "+" + token + "   ";
    }
    out += '\n';
  }
  return out + text.substr(end);
}

ScheduleResponse one_call(const std::string& socket_path,
                          const ScheduleRequest& req) {
  const int fd = connect_unix(socket_path);
  const ScheduleResponse resp = call_server(fd, req);
  ::close(fd);
  return resp;
}

/// `n` bytes with period 251 (a prime), so a byte out of place shows.
std::string patterned(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>(i % 251);
  return out;
}

/// Sends all of `bytes` on `fd` in pieces of at most `piece` bytes.
void send_in_pieces(int fd, std::string_view bytes, std::size_t piece) {
  while (!bytes.empty()) {
    const ssize_t r = ::send(fd, bytes.data(), std::min(piece, bytes.size()),
                             MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    ASSERT_GT(r, 0) << "send failed: errno " << errno;
    bytes.remove_prefix(static_cast<std::size_t>(r));
  }
}

/// The raw bytes `write` sends on one end of a socket pair, read from the
/// other end until `write` returns and shuts its end down.
template <typename Write>
std::string bytes_sent(Write&& write) {
  SocketPair sp;
  std::thread writer([&] {
    try {
      write(sp.fds[0]);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "write failed: " << e.what();
    }
    ::shutdown(sp.fds[0], SHUT_WR);
  });
  std::string got;
  char buf[1 << 16];
  for (ssize_t r; (r = ::recv(sp.fds[1], buf, sizeof buf, 0)) > 0;) {
    got.append(buf, static_cast<std::size_t>(r));
  }
  writer.join();
  return got;
}

/// Visits of `phase` in a server's metrics snapshot (0 when absent).
std::uint64_t phase_visits(const MetricsSnapshot& snap,
                           const std::string& phase) {
  for (const auto& [path, stats] : snap.phases) {
    if (path == phase) return stats.visits;
  }
  return 0;
}

// --- Framing ---------------------------------------------------------------

TEST(ServeFraming, RoundTripsPayloadsWithNewlines) {
  SocketPair sp;
  const std::string payload = "line one\nline two\n\nbinary-ish \x01\x02";
  write_frame(sp.fds[0], payload);
  const auto got = read_frame(sp.fds[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(ServeFraming, RoundTripsEmptyPayload) {
  SocketPair sp;
  write_frame(sp.fds[0], "");
  const auto got = read_frame(sp.fds[1]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "");
}

TEST(ServeFraming, CleanEofIsNullopt) {
  SocketPair sp;
  ::close(sp.fds[0]);
  sp.fds[0] = -1;
  EXPECT_EQ(read_frame(sp.fds[1]), std::nullopt);
}

TEST(ServeFraming, RejectsBadMagic) {
  SocketPair sp;
  const std::string junk = "HTTP/1.1 200 OK\n";
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, RejectsGarbageLength) {
  SocketPair sp;
  const std::string junk = "SEHC1 12abc\n";
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, RejectsOversizedFrame) {
  SocketPair sp;
  const std::string junk = "SEHC1 4096\n";
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1], /*max_bytes=*/1024), ProtocolError);
}

TEST(ServeFraming, RejectsTruncatedPayload) {
  SocketPair sp;
  const std::string partial = "SEHC1 100\nonly a few bytes";
  ASSERT_EQ(::send(sp.fds[0], partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(sp.fds[0]);  // EOF mid-payload
  sp.fds[0] = -1;
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, RejectsUnboundedHeader) {
  SocketPair sp;
  const std::string junk(64, 'A');  // no newline within the 32-byte bound
  ASSERT_EQ(::send(sp.fds[0], junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));
  EXPECT_THROW((void)read_frame(sp.fds[1]), ProtocolError);
}

TEST(ServeFraming, SmallPiecesReassembleAcrossTheBufferGrowthSteps) {
  // read_frame sizes its buffer at 64 KiB, then doubles it as bytes
  // arrive, within a 1 MiB reservation. 1.3 MB crosses every step and the
  // reservation; 4093-byte pieces (a prime) make every step fall inside a
  // piece, and split the header too.
  const std::string payload = patterned(1'300'000);
  const std::string header = "SEHC1 " + std::to_string(payload.size()) + "\n";
  constexpr std::size_t kPiece = 4093;
  for (std::size_t step = 64u << 10; step < payload.size(); step *= 2) {
    ASSERT_NE((header.size() + step) % kPiece, 0u) << step;
  }
  SocketPair sp;
  std::thread writer(
      [&] { send_in_pieces(sp.fds[0], header + payload, kPiece); });
  const std::optional<std::string> got = read_frame(sp.fds[1]);
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), payload.size());
  EXPECT_TRUE(*got == payload);
}

TEST(ServeFraming, TruncatedPayloadReportsBytesGotAndExpected) {
  // Truncated past the first 64 KiB buffer, mid-way through a later one.
  SocketPair sp;
  const std::string partial = "SEHC1 200000\n" + std::string(70'000, 'p');
  std::thread writer([&] {
    send_in_pieces(sp.fds[0], partial, 8192);
    ::shutdown(sp.fds[0], SHUT_WR);  // EOF mid-payload
  });
  std::string what;
  try {
    (void)read_frame(sp.fds[1]);
  } catch (const ProtocolError& e) {
    what = e.what();
  }
  writer.join();
  EXPECT_NE(what.find("closed mid-frame payload (got 70000 of 200000 bytes)"),
            std::string::npos)
      << "'" << what << "'";
}

TEST(ServeFraming, FrameWithATailIsTheFrameOfTheJoinedPayload) {
  // Parts larger than the socket buffer, and empty parts.
  const std::string head(300'000, 'h');
  const std::string tail = patterned(900'001);
  for (const auto& [a, b] :
       {std::pair<std::string_view, std::string_view>{head, tail},
        {"", tail},
        {head, ""},
        {"sehc-request v1\n", "x"},
        {"", ""}}) {
    const std::string joined = std::string(a) + std::string(b);
    const std::string expected =
        "SEHC1 " + std::to_string(joined.size()) + "\n" + joined;
    EXPECT_TRUE(bytes_sent([&](int fd) { write_frame(fd, joined); }) ==
                expected)
        << a.size() << " + " << b.size();
    EXPECT_TRUE(bytes_sent([&](int fd) { write_frame(fd, a, b); }) ==
                expected)
        << a.size() << " + " << b.size();
  }
}

// --- Request / response documents ------------------------------------------

TEST(ServeRequest, SerializeParseRoundTrip) {
  ScheduleRequest req;
  req.engine = "GA";
  req.seed = 99;
  req.budget = Budget::evals(20000);
  req.deadline_ms = 250.0;
  req.workload_text = small_workload_text(1);

  const ScheduleRequest got = ScheduleRequest::parse(req.serialize());
  EXPECT_EQ(got.op, "solve");
  EXPECT_EQ(got.engine, "GA");
  EXPECT_EQ(got.seed, 99u);
  EXPECT_EQ(got.budget.kind, Budget::Kind::kEvals);
  EXPECT_EQ(got.budget.count, 20000u);
  EXPECT_DOUBLE_EQ(got.deadline_ms, 250.0);
  EXPECT_EQ(got.workload_text, req.workload_text);
}

TEST(ServeFraming, SignalShortenedWritesResumeAtTheFirstUnsentByte) {
  // A signal ends a blocked sendmsg early with a short count, inside a part
  // or at a part edge; write_frame must go on from the first unsent byte.
  // The reader signals the writer after every small read.
  struct sigaction quiet {};
  struct sigaction saved {};
  quiet.sa_handler = [](int) {};
  sigemptyset(&quiet.sa_mask);
  quiet.sa_flags = 0;  // no SA_RESTART: the blocked call returns early
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &saved), 0);
  const std::string head(300'000, 'h');
  const std::string tail = patterned(900'001);
  SocketPair sp;
  std::thread writer([&] {
    try {
      write_frame(sp.fds[0], head, tail);
    } catch (const ProtocolError& e) {
      ADD_FAILURE() << e.what();
    }
    ::shutdown(sp.fds[0], SHUT_WR);
  });
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::recv(sp.fds[1], buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got.append(buf, static_cast<std::size_t>(r));
    ::pthread_kill(writer.native_handle(), SIGUSR1);
  }
  writer.join();
  ::sigaction(SIGUSR1, &saved, nullptr);
  EXPECT_TRUE(got == "SEHC1 " + std::to_string(head.size() + tail.size()) +
                         "\n" + head + tail);
}

TEST(ServeRequest, SerializeKeepsTheWireBytes) {
  ScheduleRequest req;
  req.engine = "GA";
  req.seed = 99;
  req.budget = Budget::evals(20000);
  req.deadline_ms = 250.0;
  req.workload_text = "sehc-workload v1\n...\n";
  const std::string head =
      "sehc-request v1\nop=solve\nengine=GA\nseed=99\n"
      "budget=evals:20000\ndeadline_ms=250.000\nworkload:\n";
  EXPECT_EQ(req.serialize_head(), head);
  EXPECT_EQ(req.serialize(), head + req.workload_text);

  ScheduleRequest stats;
  stats.op = "stats";
  stats.workload_text.clear();
  EXPECT_EQ(stats.serialize(),
            "sehc-request v1\nop=stats\nengine=SE\nseed=1\n"
            "budget=steps:150\ndeadline_ms=0.000\n");
}

TEST(ServeRequest, CallServerWritesTheFrameOfSerialize) {
  ScheduleRequest solve = solve_request(small_workload_text(3));
  solve.deadline_ms = 250.0;
  ScheduleRequest stats;
  stats.op = "stats";
  stats.workload_text.clear();
  for (const ScheduleRequest* req : {&solve, &stats}) {
    const std::string expected =
        bytes_sent([&](int fd) { write_frame(fd, req->serialize()); });
    SocketPair sp;
    std::string got;
    std::thread peer([&] {
      char buf[1 << 16];
      while (got.size() < expected.size()) {
        const ssize_t r = ::recv(sp.fds[1], buf, sizeof buf, 0);
        if (r <= 0) break;
        got.append(buf, static_cast<std::size_t>(r));
      }
      ScheduleResponse resp;
      resp.makespan = 12.5;
      try {
        write_frame(sp.fds[1], resp.serialize());
      } catch (const ProtocolError& e) {
        ADD_FAILURE() << e.what();
      }
    });
    ScheduleResponse resp;
    EXPECT_NO_THROW(resp = call_server(sp.fds[0], *req));
    ::shutdown(sp.fds[0], SHUT_RDWR);  // frees the peer if the call failed
    peer.join();
    EXPECT_EQ(got, expected) << req->op;
    EXPECT_EQ(resp.makespan, 12.5);
  }
}

TEST(ServeRequest, ByValueParseHandlesEverySectionShape) {
  // No section: a stats request.
  ScheduleRequest stats;
  stats.op = "stats";
  stats.workload_text.clear();
  const std::string bare = stats.serialize();
  ASSERT_EQ(bare.find("workload:"), std::string::npos);
  const ScheduleRequest got = ScheduleRequest::parse(bare);
  EXPECT_EQ(got.op, "stats");
  EXPECT_TRUE(got.workload_text.empty());
  EXPECT_EQ(got.serialize(), bare);

  // An empty workload section, and a payload that ends at the marker
  // without its newline: both leave no workload, which only a solve
  // rejects.
  for (const std::string marker : {"workload:\n", "workload:"}) {
    const ScheduleRequest empty =
        ScheduleRequest::parse(bare + marker);
    EXPECT_EQ(empty.op, "stats") << marker;
    EXPECT_TRUE(empty.workload_text.empty()) << marker;
    EXPECT_THROW((void)ScheduleRequest::parse(
                     "sehc-request v1\nop=solve\n" + marker),
                 ProtocolError)
        << marker;
  }
  EXPECT_EQ(ScheduleRequest::parse("sehc-request v1\nworkload:\nW")
                .workload_text,
            "W");

  // A moved-in payload: the section is the bytes after the marker line.
  const ScheduleRequest solve = solve_request(small_workload_text(6));
  std::string payload = solve.serialize();
  const ScheduleRequest moved = ScheduleRequest::parse(std::move(payload));
  EXPECT_EQ(moved.workload_text, solve.workload_text);
  EXPECT_EQ(moved.serialize(), solve.serialize());
}

TEST(ServeRequest, ParseRejectsMalformedDocuments) {
  EXPECT_THROW((void)ScheduleRequest::parse("not a request"), ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nbogus_key=1\n"),
               ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nseed=-4\n"),
               ProtocolError);
  EXPECT_THROW(
      (void)ScheduleRequest::parse("sehc-request v1\nbudget=steps:zero\n"),
      ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nop=dance\n"),
               ProtocolError);
  // A solve without a workload section is malformed.
  EXPECT_THROW((void)ScheduleRequest::parse("sehc-request v1\nop=solve\n"),
               ProtocolError);
}

TEST(ServeRequest, YLimitIsAnUnknownField) {
  // SE's Y is not a request field: a request that sets it is malformed.
  std::string payload = solve_request(small_workload_text(1)).serialize();
  payload.insert(payload.find("budget="), "y_limit=0\n");
  try {
    (void)ScheduleRequest::parse(payload);
    ADD_FAILURE() << "a request with y_limit= parsed";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown request field 'y_limit'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeRequest, BudgetTokenRoundTripsAllKinds) {
  for (const Budget& b :
       {Budget::steps(150), Budget::evals(20000), Budget::seconds(2.5)}) {
    const Budget got =
        ScheduleRequest::parse_budget_token(ScheduleRequest::budget_token(b));
    EXPECT_EQ(got.kind, b.kind);
    EXPECT_EQ(got.count, b.count);
    EXPECT_DOUBLE_EQ(got.wall_seconds, b.wall_seconds);
  }
  EXPECT_THROW((void)ScheduleRequest::parse_budget_token("eons:5"),
               ProtocolError);
  EXPECT_THROW((void)ScheduleRequest::parse_budget_token("steps:0"),
               ProtocolError);
}

TEST(ServeResponse, SerializeParseRoundTrip) {
  ScheduleResponse resp;
  resp.status = ServeStatus::kOk;
  resp.makespan = 1234.5678901234;
  resp.evals = 4242;
  resp.steps = 17;
  resp.timed_out = true;
  resp.cache_hit = true;
  resp.queue_ms = 1.5;
  resp.solve_ms = 22.25;
  resp.extra.emplace_back("requests", "12");
  resp.schedule_csv = "task,name,machine,start,finish\n0,t0,1,0,5\n";

  const ScheduleResponse got = ScheduleResponse::parse(resp.serialize());
  EXPECT_EQ(got.status, ServeStatus::kOk);
  EXPECT_DOUBLE_EQ(got.makespan, resp.makespan);
  EXPECT_EQ(got.evals, 4242u);
  EXPECT_EQ(got.steps, 17u);
  EXPECT_TRUE(got.timed_out);
  EXPECT_TRUE(got.cache_hit);
  EXPECT_DOUBLE_EQ(got.queue_ms, 1.5);
  EXPECT_DOUBLE_EQ(got.solve_ms, 22.25);
  ASSERT_EQ(got.extra.size(), 1u);
  EXPECT_EQ(got.extra[0].first, "requests");
  EXPECT_EQ(got.extra[0].second, "12");
  EXPECT_EQ(got.schedule_csv, resp.schedule_csv);
}

TEST(ServeResponse, ByValueParseWithAndWithoutSchedule) {
  ScheduleResponse with;
  with.makespan = 7.25;
  with.evals = 3;
  with.schedule_csv = "task,name,machine,start,finish\n0,t0,0,0,7.25\n";
  ScheduleResponse without;
  without.status = ServeStatus::kOverloaded;
  without.error = "admission queue full";
  for (const ScheduleResponse* resp : {&with, &without}) {
    const std::string bytes = resp->serialize();
    EXPECT_EQ(bytes.find("schedule:") != std::string::npos,
              !resp->schedule_csv.empty());
    std::string payload = bytes;
    const ScheduleResponse got = ScheduleResponse::parse(std::move(payload));
    EXPECT_EQ(got.status, resp->status);
    EXPECT_EQ(got.error, resp->error);
    EXPECT_EQ(got.makespan, resp->makespan);
    EXPECT_EQ(got.evals, resp->evals);
    EXPECT_EQ(got.schedule_csv, resp->schedule_csv);
    EXPECT_EQ(got.serialize(), bytes);
  }
}

TEST(ServeResponse, ErrorMessageNewlinesAreFolded) {
  ScheduleResponse resp;
  resp.status = ServeStatus::kError;
  resp.error = "line one\nline two";
  const ScheduleResponse got = ScheduleResponse::parse(resp.serialize());
  EXPECT_EQ(got.status, ServeStatus::kError);
  EXPECT_EQ(got.error, "line one line two");
}

TEST(ServeRequest, CanonicalStringIsTheIdentityThenTheFieldsInFixedOrder) {
  const std::string identity =
      workload_identity(workload_from_string(small_workload_text(3)));
  const ScheduleRequest req = solve_request(small_workload_text(3));
  const std::string canonical = req.canonical_string(identity);
  ASSERT_EQ(canonical.compare(0, identity.size(), identity), 0);
  EXPECT_EQ(std::string_view(canonical).substr(identity.size()),
            "sehc-serve-request v1\nengine=SE\nseed=7\n"
            "budget=steps:8\n");
  EXPECT_EQ(canonical, identity + req.canonical_fields());
}

TEST(ServeRequest, CanonicalIdentityExcludesDeadlineIncludesBudget) {
  const std::string identity =
      workload_identity(workload_from_string(small_workload_text(3)));
  ScheduleRequest a = solve_request(small_workload_text(3));
  ScheduleRequest b = a;
  b.deadline_ms = 500.0;  // deadline must not split the cache
  EXPECT_EQ(a.canonical_string(identity), b.canonical_string(identity));

  ScheduleRequest c = a;
  c.budget = Budget::steps(9);  // budget is part of the identity
  EXPECT_NE(a.canonical_string(identity), c.canonical_string(identity));

  ScheduleRequest d = a;
  d.seed = a.seed + 1;
  EXPECT_NE(a.canonical_string(identity), d.canonical_string(identity));
}

// --- Workload identity -----------------------------------------------------
//
// The response-cache key holds workload_identity(), which must tell
// workloads apart exactly as their canonical texts do. Differential
// oracle: two workloads have equal identities exactly when their
// workload_to_string texts are equal.

/// A hand-made document with what generated workloads never carry: custom
/// task names, non-MIMD arch lines and signed zeros.
constexpr const char* kHandMadeDoc =
    "sehc-workload v1\n"
    "machines 3\n"
    "arch 1 SIMD\n"
    "arch 2 special-purpose\n"
    "sehc-dag v1\n"
    "tasks 4\n"
    "name 0 load\n"
    "name 3 store\n"
    "edge 0 1\n"
    "edge 0 2\n"
    "edge 1 3\n"
    "edge 2 3\n"
    "end-dag\n"
    "exec\n"
    "10 20.5 -0 40\n"
    "11 0 31 41\n"
    "12 22 32 1e-300\n"
    "transfer\n"
    "1 2 3 4\n"
    "5 6 7 0.125\n"
    "9 10 11 12\n";

/// kHandMadeDoc written differently: other number spellings, the default
/// name and the MIMD arch spelled out, an arch line overridden by a later
/// one, blanks and comments. It parses to the same workload.
constexpr const char* kHandMadeReformatted =
    "sehc-workload v1\n"
    "machines 3\n"
    "arch 0 MIMD\n"
    "arch 1 vector\n"
    "arch 1 SIMD\n"
    "arch 2 special-purpose\n"
    "sehc-dag v1\n"
    "# a comment\n"
    "tasks 4\n"
    "name 0 load\n"
    "name 1 s1\n"
    "name 3 store\n"
    "edge 0 1\n"
    "edge 0 2\n"
    "edge   1 3\n"
    "edge 2 3\n"
    "end-dag\n"
    "exec\n"
    "1e1 +20.50 -0.000 4.0e1\n"
    "  11 0e5 31.0 41\n"
    "12 22 32 0.1e-299\n"
    "transfer\n"
    "1 2.0 3 4\n"
    "5 6 7 125e-3\n"
    "9 10 11 12\n";

/// An edge-free graph: no transfer section at all.
constexpr const char* kEdgeFreeDoc =
    "sehc-workload v1\n"
    "machines 2\n"
    "sehc-dag v1\n"
    "tasks 3\n"
    "end-dag\n"
    "exec\n"
    "1 2 3\n"
    "4 5 -0\n";

/// The pieces of a workload, to rebuild it with one field changed.
struct WorkloadParts {
  TaskGraph graph;
  std::vector<MachineArch> archs;
  Matrix<double> exec;
  Matrix<double> transfer;

  explicit WorkloadParts(const Workload& w)
      : graph(w.graph()),
        exec(w.exec_matrix()),
        transfer(w.transfer_matrix()) {
    for (MachineId m = 0; m < w.num_machines(); ++m) {
      archs.push_back(w.machines()[m].arch);
    }
  }

  Workload build() const {
    MachineSet machines;
    for (const MachineArch arch : archs) machines.add("", arch);
    return Workload(graph, std::move(machines), exec, transfer);
  }
};

/// Generated workloads of several classes plus the hand-made documents.
std::vector<Workload> identity_corpus() {
  std::vector<Workload> corpus;
  for (const Level connectivity : {Level::kLow, Level::kMedium, Level::kHigh}) {
    for (const Level heterogeneity : {Level::kLow, Level::kHigh}) {
      WorkloadParams params;
      params.tasks = 10;
      params.machines = 4;
      params.connectivity = connectivity;
      params.heterogeneity = heterogeneity;
      params.ccr = heterogeneity == Level::kLow ? 0.1 : 1.0;
      params.seed = corpus.size() + 1;
      corpus.push_back(make_workload(params));
    }
  }
  WorkloadParams consistent;
  consistent.tasks = 9;
  consistent.machines = 3;
  consistent.consistency = Consistency::kConsistent;
  corpus.push_back(make_workload(consistent));
  corpus.push_back(make_workload(paper_small(5)));
  for (const char* doc : {kHandMadeDoc, kHandMadeReformatted, kEdgeFreeDoc}) {
    corpus.push_back(workload_from_string(doc));
  }
  return corpus;
}

/// Every one-field change of `w` that the identity must tell apart.
std::vector<std::pair<std::string, Workload>> one_field_changes(
    const Workload& w) {
  std::vector<std::pair<std::string, Workload>> out;
  const auto change = [&](const std::string& what, auto edit) {
    WorkloadParts parts(w);
    edit(parts);
    out.emplace_back(what, parts.build());
  };
  const double inf = std::numeric_limits<double>::infinity();
  change("exec nextafter", [&](WorkloadParts& p) {
    p.exec(0, 1) = std::nextafter(p.exec(0, 1), inf);
  });
  if (!w.transfer_matrix().empty()) {
    change("transfer nextafter", [&](WorkloadParts& p) {
      p.transfer(0, 0) = std::nextafter(p.transfer(0, 0), inf);
    });
  }
  change("exec 0", [](WorkloadParts& p) { p.exec(1, 0) = 0.0; });
  change("exec -0", [](WorkloadParts& p) { p.exec(1, 0) = -0.0; });
  change("renamed task", [](WorkloadParts& p) {
    p.graph.set_name(0, p.graph.name(0) + "x");
  });
  change("changed arch", [](WorkloadParts& p) {
    p.archs.back() = p.archs.back() == MachineArch::kDataflow
                         ? MachineArch::kVector
                         : MachineArch::kDataflow;
  });
  change("one more machine", [](WorkloadParts& p) {
    p.archs.push_back(MachineArch::kMimd);
    Matrix<double> exec(p.exec.rows() + 1, p.exec.cols());
    for (std::size_t r = 0; r < exec.rows(); ++r) {
      for (std::size_t c = 0; c < exec.cols(); ++c) {
        exec(r, c) = p.exec(std::min(r, p.exec.rows() - 1), c);
      }
    }
    p.exec = std::move(exec);
    const std::size_t l = p.archs.size();
    p.transfer = Matrix<double>(l * (l - 1) / 2, p.transfer.cols(), 1.0);
  });
  if (w.num_items() >= 2) {
    // Swapping two edge lines swaps the data items the transfer columns
    // belong to.
    const std::string text = workload_to_string(w);
    const std::size_t first = text.find("\nedge ") + 1;
    const std::size_t mid = text.find('\n', first) + 1;
    const std::size_t end = text.find('\n', mid) + 1;
    const std::string swapped = text.substr(0, first) +
                                text.substr(mid, end - mid) +
                                text.substr(first, mid - first) +
                                text.substr(end);
    out.emplace_back("swapped edges", workload_from_string(swapped));
  }
  return out;
}

TEST(WorkloadIdentity, EqualExactlyWhenCanonicalTextsAreEqual) {
  std::vector<Workload> corpus = identity_corpus();
  const std::size_t bases = corpus.size();
  for (std::size_t i = 0; i < bases; ++i) {
    for (auto& [what, changed] : one_field_changes(corpus[i])) {
      corpus.push_back(std::move(changed));
    }
  }
  std::vector<std::string> texts, identities;
  for (const Workload& w : corpus) {
    texts.push_back(workload_to_string(w));
    identities.push_back(workload_identity(w));
  }
  std::size_t equal_pairs = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::size_t j = i + 1; j < corpus.size(); ++j) {
      const bool same_text = texts[i] == texts[j];
      equal_pairs += same_text ? 1 : 0;
      EXPECT_EQ(identities[i] == identities[j], same_text)
          << "workloads " << i << " and " << j;
    }
  }
  // Both sides of the equivalence are exercised: the two spellings of the
  // hand-made document are one workload.
  EXPECT_GE(equal_pairs, 1u);
}

TEST(WorkloadIdentity, ReformattedNumbersCollide) {
  const Workload a = workload_from_string(kHandMadeDoc);
  const Workload b = workload_from_string(kHandMadeReformatted);
  ASSERT_EQ(workload_to_string(a), workload_to_string(b));
  EXPECT_EQ(workload_identity(a), workload_identity(b));

  const std::string text = small_workload_text(4);
  const std::string reformatted = reformat_exec(text);
  ASSERT_NE(reformatted, text);
  EXPECT_EQ(workload_identity(workload_from_string(reformatted)),
            workload_identity(workload_from_string(text)));
}

TEST(WorkloadIdentity, OneFieldChangesNeverCollide) {
  for (const char* doc : {kHandMadeDoc, kEdgeFreeDoc}) {
    const Workload base = workload_from_string(doc);
    const std::string base_text = workload_to_string(base);
    const std::string base_identity = workload_identity(base);
    for (const auto& [what, changed] : one_field_changes(base)) {
      // Each change is real (the texts differ), and the identity sees it.
      EXPECT_NE(workload_to_string(changed), base_text) << what;
      EXPECT_NE(workload_identity(changed), base_identity) << what;
    }
  }
  // -0 and 0 in the same cell differ, both ways round.
  WorkloadParts zero(workload_from_string(kEdgeFreeDoc));
  WorkloadParts negative_zero = zero;
  zero.exec(1, 2) = 0.0;
  negative_zero.exec(1, 2) = -0.0;
  EXPECT_NE(workload_identity(zero.build()),
            workload_identity(negative_zero.build()));
}

TEST(WorkloadIdentity, KeyHashesOfBodiesAndIdentitiesNeverCollide) {
  // The oracle corpus and all its one-field changes: as bodies (the hand-made
  // documents as written and every workload's text) and as identities.
  std::vector<Workload> corpus = identity_corpus();
  const std::size_t bases = corpus.size();
  for (std::size_t i = 0; i < bases; ++i) {
    for (auto& [what, changed] : one_field_changes(corpus[i])) {
      corpus.push_back(std::move(changed));
    }
  }
  std::vector<std::string> bodies{kHandMadeDoc, kHandMadeReformatted,
                                  kEdgeFreeDoc};
  std::vector<std::string> identities;
  for (const Workload& w : corpus) {
    bodies.push_back(workload_to_string(w));
    identities.push_back(workload_identity(w));
  }
  for (const auto* keys : {&bodies, &identities}) {
    std::map<std::uint64_t, std::string_view> seen;
    for (const std::string& key : *keys) {
      const auto [it, fresh] = seen.emplace(key_hash64(key), key);
      EXPECT_TRUE(fresh || it->second == key)
          << "two keys of " << key.size() << " and " << it->second.size()
          << " bytes share a hash";
    }
    // Distinct keys did occur: the one-field changes are all distinct.
    EXPECT_GT(seen.size(), bases);
  }
}

// --- RequestKey ------------------------------------------------------------
//
// The server's response-cache key must tell requests apart exactly as
// canonical_string() does, without holding a copy of the identity bytes.

/// The key the server builds for `req` over the shared `identity`.
RequestKey key_of(const ScheduleRequest& req,
                  const std::shared_ptr<const std::string>& identity) {
  return RequestKey(identity, key_hash64(*identity), req.canonical_fields());
}

/// `base`, every one-field change of its identity fields, and a changed
/// deadline (which the identity leaves out).
std::vector<ScheduleRequest> request_changes(const ScheduleRequest& base) {
  std::vector<ScheduleRequest> out{base};
  const auto change = [&](auto edit) {
    ScheduleRequest req = base;
    edit(req);
    out.push_back(std::move(req));
  };
  change([](ScheduleRequest& r) { r.engine = "GA"; });
  change([](ScheduleRequest& r) { r.seed += 1; });
  change([](ScheduleRequest& r) { r.budget = Budget::steps(9); });
  change([](ScheduleRequest& r) { r.budget = Budget::evals(8); });
  change([](ScheduleRequest& r) { r.budget = Budget::seconds(8.0); });
  change([](ScheduleRequest& r) { r.deadline_ms = 250.0; });
  return out;
}

TEST(RequestKeyTest, EqualExactlyWhenCanonicalStringsAreEqual) {
  // Each workload gets its own identity object; the corpus holds one
  // workload in two spellings, so equal keys over distinct objects occur.
  struct Case {
    RequestKey key;
    std::string canonical;
  };
  std::vector<Case> cases;
  for (const Workload& w : identity_corpus()) {
    const auto identity =
        std::make_shared<const std::string>(workload_identity(w));
    for (const ScheduleRequest& req : request_changes(solve_request(""))) {
      cases.push_back({key_of(req, identity), req.canonical_string(*identity)});
    }
  }
  std::size_t equal_pairs = 0, shared_pairs = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (std::size_t j = i + 1; j < cases.size(); ++j) {
      const bool same = cases[i].canonical == cases[j].canonical;
      EXPECT_EQ(cases[i].key == cases[j].key, same) << i << " vs " << j;
      if (!same) continue;
      ++equal_pairs;
      shared_pairs += cases[i].key.identity == cases[j].key.identity ? 1 : 0;
      EXPECT_EQ(cases[i].key.hash(), cases[j].key.hash()) << i << " vs " << j;
    }
  }
  // Both ways to be equal occur: a shared identity (deadline changes) and
  // byte-equal identities (the two spellings).
  EXPECT_GT(shared_pairs, 0u);
  EXPECT_GT(equal_pairs, shared_pairs);
}

TEST(RequestKeyTest, SharedAndCopiedIdentitiesCompareEqual) {
  const auto identity = std::make_shared<const std::string>(
      workload_identity(workload_from_string(small_workload_text(3))));
  const auto copy = std::make_shared<const std::string>(*identity);
  const ScheduleRequest req = solve_request("");
  const RequestKey key = key_of(req, identity);
  const RequestKey shared = key_of(req, identity);
  const RequestKey copied = key_of(req, copy);
  ASSERT_EQ(shared.identity, key.identity);
  ASSERT_NE(copied.identity, key.identity);
  EXPECT_TRUE(key == shared);
  EXPECT_TRUE(key == copied);
  EXPECT_EQ(key.hash(), copied.hash());
}

// --- ContentLru ------------------------------------------------------------

TEST(ContentLruTest, EvictsLeastRecentlyUsed) {
  ContentLru<int> lru(2);
  lru.insert(1, "one", 10);
  lru.insert(2, "two", 20);
  EXPECT_TRUE(lru.lookup(1, "one").has_value());  // refresh 1; 2 becomes LRU
  lru.insert(3, "three", 30);                     // evicts 2
  EXPECT_TRUE(lru.lookup(1, "one").has_value());
  EXPECT_FALSE(lru.lookup(2, "two").has_value());
  EXPECT_TRUE(lru.lookup(3, "three").has_value());
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(ContentLruTest, HashCollisionIsAMissNotAWrongAnswer) {
  ContentLru<int> lru(4);
  lru.insert(42, "alpha", 1);
  EXPECT_FALSE(lru.lookup(42, "beta").has_value());
  EXPECT_EQ(lru.collisions(), 1u);
  // The true entry still serves.
  EXPECT_EQ(lru.lookup(42, "alpha").value(), 1);
}

TEST(ContentLruTest, RequestKeyWithAnotherIdentityUnderTheSameHashIsAMiss) {
  const auto identity = std::make_shared<const std::string>(
      workload_identity(workload_from_string(small_workload_text(3))));
  const auto other = std::make_shared<const std::string>(
      workload_identity(workload_from_string(small_workload_text(4))));
  const ScheduleRequest req = solve_request("");
  const RequestKey key = key_of(req, identity);
  // The same tag over other identity bytes: a forced hash collision.
  const RequestKey forged(other, key_hash64(*identity),
                          req.canonical_fields());
  ASSERT_EQ(forged.hash(), key.hash());

  ResponseCache lru(4);
  CachedSolve solved;
  solved.makespan = 3.0;
  lru.insert(key.hash(), key, solved);
  EXPECT_FALSE(lru.lookup(forged.hash(), forged).has_value());
  EXPECT_EQ(lru.collisions(), 1u);
  EXPECT_EQ(lru.misses(), 1u);
  // The true entry still serves, also through a fresh identity object.
  const auto again = lru.lookup(
      key.hash(), key_of(req, std::make_shared<const std::string>(*identity)));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->makespan, 3.0);
}

TEST(ContentLruTest, ZeroCapacityDisables) {
  ContentLru<int> lru(0);
  lru.insert(1, "one", 10);
  EXPECT_FALSE(lru.lookup(1, "one").has_value());
  EXPECT_EQ(lru.size(), 0u);
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueueTest, ShedsWhenFullAndDrainsInBatches) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full => shed
  EXPECT_EQ(q.peak_depth(), 3u);

  int item = 0;
  EXPECT_TRUE(q.pop(item));
  EXPECT_EQ(item, 1);
  EXPECT_TRUE(q.try_push(4));  // popping frees a slot
  EXPECT_EQ(q.peak_depth(), 3u);

  q.close();
  EXPECT_FALSE(q.try_push(5));
  for (const int expected : {2, 3, 4}) {  // close() still drains, in order
    EXPECT_TRUE(q.pop(item));
    EXPECT_EQ(item, expected);
  }
  EXPECT_FALSE(q.pop(item));  // closed-and-drained
}

// --- End-to-end server -----------------------------------------------------

TEST(ServeServer, ColdSolveMatchesOfflineRunAndCacheHitIsBitIdentical) {
  const std::uint64_t seed = 11;
  WorkloadParams params;
  params.tasks = 12;
  params.machines = 3;
  params.seed = 1;
  const Workload w = make_workload(params);
  const Budget budget = Budget::steps(8);

  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 2;
  Server server(so);
  server.start();

  const ScheduleRequest req =
      solve_request(workload_to_string(w), "SE", seed, budget);
  const ScheduleResponse cold = one_call(so.socket_path, req);
  ASSERT_EQ(cold.status, ServeStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_FALSE(cold.timed_out);
  EXPECT_FALSE(cold.schedule_csv.empty());

  // The server's answer is the same bytes an offline run_search produces.
  auto engine = make_search_engine("SE", w, budget, seed);
  const SearchResult offline = run_search(*engine, budget);
  std::ostringstream offline_csv;
  write_schedule_csv(offline_csv, w, offline.schedule);
  EXPECT_EQ(cold.makespan, offline.best_makespan);
  EXPECT_EQ(cold.schedule_csv, offline_csv.str());

  // A repeat is a cache hit with bit-identical deterministic fields.
  const ScheduleResponse warm = one_call(so.socket_path, req);
  ASSERT_EQ(warm.status, ServeStatus::kOk) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.schedule_csv, cold.schedule_csv);
  EXPECT_EQ(warm.evals, cold.evals);
  EXPECT_EQ(warm.steps, cold.steps);

  // Reformatting the workload document must not split the cache. The
  // reformatted body is a new workload-cache key with the same identity
  // bytes; both rounds are response-cache hits with the cold solve's
  // bytes, the first through a fresh parse, the second through the
  // identity cached for that body.
  ScheduleRequest reformatted = req;
  reformatted.workload_text = reformat_exec(req.workload_text);
  ASSERT_NE(reformatted.workload_text, req.workload_text);
  ASSERT_EQ(workload_to_string(workload_from_string(reformatted.workload_text)),
            req.workload_text);
  for (int round = 0; round < 2; ++round) {
    const ScheduleResponse hit = one_call(so.socket_path, reformatted);
    ASSERT_EQ(hit.status, ServeStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cache_hit) << "round " << round;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.makespan),
              std::bit_cast<std::uint64_t>(cold.makespan));
    EXPECT_EQ(hit.evals, cold.evals);
    EXPECT_EQ(hit.steps, cold.steps);
    EXPECT_EQ(hit.schedule_csv, cold.schedule_csv);
  }

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.workload_cache_hits, 2u);  // the warm repeat, round 1
  EXPECT_EQ(stats.errors, 0u);

  // Every solve request passes the workload and canonical-key phases; the
  // parse runs once per workload-cache miss: the cold body and round 0.
  const MetricsSnapshot snap = server.metrics_snapshot();
  for (const auto& [phase, visits] :
       {std::pair<std::string, std::uint64_t>{"request/workload", 4},
        {"request/parse", 2},
        {"request/canonical", 4},
        {"request/cache_lookup", 4}}) {
    EXPECT_EQ(phase_visits(snap, phase), visits) << phase;
  }
  server.request_drain();
  server.join();
}

TEST(ServeServer, DistinctWorkloadsWithEqualFieldsKeepSeparateEntries) {
  // The key hash covers the workload as well as the request fields: two
  // workloads under the same engine/seed/budget must not share (and keep
  // overwriting) one cache slot.
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();
  const ScheduleRequest a = solve_request(small_workload_text(21));
  const ScheduleRequest b = solve_request(small_workload_text(22));
  for (const ScheduleRequest* req : {&a, &b}) {
    const ScheduleResponse cold = one_call(so.socket_path, *req);
    ASSERT_EQ(cold.status, ServeStatus::kOk) << cold.error;
    EXPECT_FALSE(cold.cache_hit);
  }
  for (const ScheduleRequest* req : {&a, &b}) {
    const ScheduleResponse warm = one_call(so.socket_path, *req);
    ASSERT_EQ(warm.status, ServeStatus::kOk) << warm.error;
    EXPECT_TRUE(warm.cache_hit);
  }
  server.request_drain();
  server.join();
}

TEST(ServeServer, ResponseHitThroughAFreshIdentityObject) {
  // One parsed body is kept, so A, B, A parses A twice. The response entry
  // holds the first parse's identity; the third request's key shares the
  // second parse's, and must still hit.
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  so.workload_cache_capacity = 1;
  Server server(so);
  server.start();
  const ScheduleRequest a = solve_request(small_workload_text(31));
  const ScheduleRequest b = solve_request(small_workload_text(32));
  const ScheduleResponse cold = one_call(so.socket_path, a);
  ASSERT_EQ(cold.status, ServeStatus::kOk) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const ScheduleResponse other = one_call(so.socket_path, b);
  ASSERT_EQ(other.status, ServeStatus::kOk) << other.error;
  EXPECT_FALSE(other.cache_hit);
  const ScheduleResponse hit = one_call(so.socket_path, a);
  ASSERT_EQ(hit.status, ServeStatus::kOk) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.makespan),
            std::bit_cast<std::uint64_t>(cold.makespan));
  EXPECT_EQ(hit.evals, cold.evals);
  EXPECT_EQ(hit.schedule_csv, cold.schedule_csv);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.workload_cache_hits, 0u);
  EXPECT_EQ(phase_visits(server.metrics_snapshot(), "request/parse"), 3u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, OneShotSchedulersServeToo) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(2);
  const ScheduleResponse resp =
      one_call(so.socket_path, solve_request(workload, "HEFT"));
  ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_FALSE(resp.schedule_csv.empty());
  EXPECT_GT(resp.makespan, 0.0);
  server.request_drain();
  server.join();
}

TEST(ServeServer, UnknownEngineAnswersErrorAndKeepsServing) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(4);
  const ScheduleResponse bad =
      one_call(so.socket_path, solve_request(workload, "NoSuchEngine"));
  EXPECT_EQ(bad.status, ServeStatus::kError);
  EXPECT_NE(bad.error.find("NoSuchEngine"), std::string::npos);
  // Answered before the body is parsed, cached or admitted.
  EXPECT_EQ(server.stats_snapshot().queue_peak, 0u);
  EXPECT_EQ(server.stats_snapshot().cache_misses, 0u);

  const ScheduleResponse good =
      one_call(so.socket_path, solve_request(workload, "SE"));
  EXPECT_EQ(good.status, ServeStatus::kOk) << good.error;
  EXPECT_EQ(server.stats_snapshot().workload_cache_hits, 0u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, MalformedWorkloadAnswersError) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const ScheduleResponse resp =
      one_call(so.socket_path, solve_request("this is not a workload\n"));
  EXPECT_EQ(resp.status, ServeStatus::kError);
  // The location names the source file relative to the checkout, never the
  // absolute path the build compiled it under.
  EXPECT_EQ(resp.error.rfind("workload: src/hc/workload_io.cpp:", 0), 0u)
      << resp.error;
  server.request_drain();
  server.join();
}

TEST(ServeServer, GarbageFrameDropsConnectionButServerSurvives) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const int fd = connect_unix(so.socket_path);
  const std::string junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  // The server closes the broken connection; the next read sees EOF or a
  // reset (close with unread data pending sends RST on some stacks).
  char buf[16];
  ssize_t r;
  do {
    r = ::recv(fd, buf, sizeof buf, 0);
  } while (r > 0);
  EXPECT_TRUE(r == 0 || (r == -1 && errno == ECONNRESET)) << errno;
  ::close(fd);

  const ScheduleResponse resp =
      one_call(so.socket_path, solve_request(small_workload_text(5)));
  EXPECT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_GE(server.stats_snapshot().protocol_errors, 1u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, DeadlineExpiredReturnsIncumbentAndIsNotCached) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  WorkloadParams params;
  params.tasks = 40;
  params.machines = 8;
  params.seed = 6;
  const Workload w = make_workload(params);

  // A step budget far beyond what 20 ms allows: the Deadline preempts the
  // run, which must still answer with a valid incumbent schedule.
  ScheduleRequest req = solve_request(workload_to_string(w), "SE", 3,
                                      Budget::steps(5'000'000));
  req.deadline_ms = 20.0;
  const ScheduleResponse resp = one_call(so.socket_path, req);
  ASSERT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_TRUE(resp.timed_out);
  EXPECT_FALSE(resp.cache_hit);
  EXPECT_GT(resp.makespan, 0.0);
  EXPECT_FALSE(resp.schedule_csv.empty());

  // Timed-out answers are wall-clock dependent, so they must not be cached:
  // the repeat is another cold (and again preempted) solve.
  const ScheduleResponse again = one_call(so.socket_path, req);
  ASSERT_EQ(again.status, ServeStatus::kOk) << again.error;
  EXPECT_FALSE(again.cache_hit);

  const ServerStats stats = server.stats_snapshot();
  EXPECT_GE(stats.timeouts, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  server.request_drain();
  server.join();
}

// Regression: a solver thread reused after a Deadline-preempted run must
// behave exactly like a fresh server — no stale prepared/evaluator state
// may leak into the next solve on that thread.
TEST(ServeServer, PreemptedSlotDoesNotContaminateNextSolve) {
  WorkloadParams p1;
  p1.tasks = 40;
  p1.machines = 8;
  p1.seed = 21;
  const std::string w1 = workload_to_string(make_workload(p1));
  const std::string w2 = small_workload_text(22, 14, 4);
  const Budget small_budget = Budget::steps(6);

  // Reference answers from a server that never saw a preemption.
  ScheduleResponse fresh_w2, fresh_w1;
  {
    ServeOptions so;
    so.socket_path = test_socket_path();
    so.threads = 1;
    Server fresh(so);
    fresh.start();
    fresh_w2 =
        one_call(so.socket_path, solve_request(w2, "GA", 5, small_budget));
    fresh_w1 =
        one_call(so.socket_path, solve_request(w1, "GA", 5, small_budget));
    ASSERT_EQ(fresh_w2.status, ServeStatus::kOk) << fresh_w2.error;
    ASSERT_EQ(fresh_w1.status, ServeStatus::kOk) << fresh_w1.error;
    fresh.request_drain();
    fresh.join();
  }

  // One solver thread: the preempted GA run and the follow-ups share it.
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  ScheduleRequest preempted =
      solve_request(w1, "GA", 5, Budget::steps(5'000'000));
  preempted.deadline_ms = 20.0;
  const ScheduleResponse t = one_call(so.socket_path, preempted);
  ASSERT_EQ(t.status, ServeStatus::kOk) << t.error;
  ASSERT_TRUE(t.timed_out) << "preemption did not trigger; timing too tight";

  // A different workload on the recycled slot must match the fresh server.
  const ScheduleResponse after_w2 =
      one_call(so.socket_path, solve_request(w2, "GA", 5, small_budget));
  ASSERT_EQ(after_w2.status, ServeStatus::kOk) << after_w2.error;
  EXPECT_FALSE(after_w2.cache_hit);
  EXPECT_EQ(after_w2.makespan, fresh_w2.makespan);
  EXPECT_EQ(after_w2.schedule_csv, fresh_w2.schedule_csv);

  // And re-requesting the preempted workload with a sane budget (a cache
  // miss — timed-out answers were never cached) must match too.
  const ScheduleResponse after_w1 =
      one_call(so.socket_path, solve_request(w1, "GA", 5, small_budget));
  ASSERT_EQ(after_w1.status, ServeStatus::kOk) << after_w1.error;
  EXPECT_FALSE(after_w1.cache_hit);
  EXPECT_EQ(after_w1.makespan, fresh_w1.makespan);
  EXPECT_EQ(after_w1.schedule_csv, fresh_w1.schedule_csv);

  server.request_drain();
  server.join();
}

TEST(ServeServer, OverCapacityBurstIsShedNotQueuedUnbounded) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  so.queue_capacity = 1;
  Server server(so);
  server.start();

  // Distinct slow workloads (no coalescing, no cache), each solving for
  // its whole deadline: with one solver thread and a one-deep queue, at
  // most one request is solved and one waits while the burst arrives, so
  // at most threads + queue_capacity = 2 of the 5 are admitted.
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, shed{0};
  for (int i = 0; i < 5; ++i) {
    clients.emplace_back([&, i] {
      WorkloadParams params;
      params.tasks = 30;
      params.machines = 6;
      params.seed = 100 + static_cast<std::uint64_t>(i);
      ScheduleRequest req = solve_request(
          workload_to_string(make_workload(params)), "SE",
          static_cast<std::uint64_t>(i), Budget::steps(5'000'000));
      req.deadline_ms = 1000.0;  // outlasts the burst, but bounded
      const ScheduleResponse resp = one_call(so.socket_path, req);
      if (resp.status == ServeStatus::kOk) ok.fetch_add(1);
      if (resp.status == ServeStatus::kOverloaded) shed.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_GE(ok.load(), 1);
  EXPECT_LE(static_cast<std::size_t>(ok.load()),
            so.threads + so.queue_capacity);
  EXPECT_EQ(ok.load() + shed.load(), 5);
  const ServerStats stats = server.stats_snapshot();
  EXPECT_GE(stats.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_LE(stats.queue_peak, so.queue_capacity);
  server.request_drain();
  server.join();
}

TEST(ServeServer, ConcurrentIdenticalRequestsCoalesceIntoOneSolve) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  // Occupy the single worker so the identical burst is concurrent for sure.
  std::thread blocker([&] {
    WorkloadParams params;
    params.tasks = 30;
    params.machines = 6;
    params.seed = 200;
    ScheduleRequest req = solve_request(
        workload_to_string(make_workload(params)), "SE", 1,
        Budget::steps(5'000'000));
    req.deadline_ms = 150.0;
    (void)one_call(so.socket_path, req);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const std::string workload = small_workload_text(8);
  std::vector<std::thread> clients;
  std::vector<ScheduleResponse> responses(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = one_call(so.socket_path, solve_request(workload));
    });
  }
  for (std::thread& t : clients) t.join();
  blocker.join();

  for (const ScheduleResponse& r : responses) {
    ASSERT_EQ(r.status, ServeStatus::kOk) << r.error;
    EXPECT_EQ(r.makespan, responses[0].makespan);
    EXPECT_EQ(r.schedule_csv, responses[0].schedule_csv);
  }
  // At least one of the four rode another's solve instead of re-solving.
  EXPECT_GE(server.stats_snapshot().coalesced, 1u);
  server.request_drain();
  server.join();
}

TEST(ServeServer, DrainCompletesInFlightRequestsThenShutsDown) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  WorkloadParams params;
  params.tasks = 30;
  params.machines = 6;
  params.seed = 300;
  ScheduleRequest slow = solve_request(
      workload_to_string(make_workload(params)), "SE", 1,
      Budget::steps(5'000'000));
  slow.deadline_ms = 150.0;

  ScheduleResponse resp;
  std::thread client(
      [&] { resp = one_call(so.socket_path, slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  server.request_drain();
  server.join();  // must not strand the in-flight client
  client.join();

  EXPECT_EQ(resp.status, ServeStatus::kOk) << resp.error;
  EXPECT_FALSE(resp.schedule_csv.empty());
  // The socket is gone: new connections are refused.
  EXPECT_THROW((void)connect_unix(so.socket_path), ProtocolError);
}

TEST(ServeServer, StatsEndpointReportsCounters) {
  ServeOptions so;
  so.socket_path = test_socket_path();
  so.threads = 1;
  Server server(so);
  server.start();

  const std::string workload = small_workload_text(9);
  (void)one_call(so.socket_path, solve_request(workload));
  (void)one_call(so.socket_path, solve_request(workload));  // cache hit

  ScheduleRequest stats_req;
  stats_req.op = "stats";
  stats_req.workload_text.clear();
  const ScheduleResponse stats = one_call(so.socket_path, stats_req);
  ASSERT_EQ(stats.status, ServeStatus::kOk);

  auto value_of = [&stats](const std::string& key) -> std::string {
    for (const auto& [k, v] : stats.extra) {
      if (k == key) return v;
    }
    return "<absent>";
  };
  EXPECT_EQ(value_of("requests"), "3");
  EXPECT_EQ(value_of("serve_cache_hits"), "1");
  EXPECT_EQ(value_of("serve_cache_misses"), "1");
  EXPECT_EQ(value_of("draining"), "0");
  EXPECT_NE(value_of("queue_peak"), "<absent>");
  // No key hash collided in either cache.
  EXPECT_EQ(value_of("serve_cache_collisions"), "0");
  EXPECT_EQ(value_of("workload_cache_collisions"), "0");
  server.request_drain();
  server.join();
}

}  // namespace
}  // namespace sehc
