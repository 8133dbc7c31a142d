// serve-repeat: the scheduling daemon under a closed loop. Two client
// connections drive an in-process Server (2 solver threads) on a private
// Unix socket with paper-scale SE requests. 9 in 10 requests repeat a
// 16-workload hot set that set-up already solved (cache hits: serve + hc,
// no solve); 1 in 10 names a never-seen workload (a miss: parse,
// admission, dispatch, solve, cache insert). One op is one request.
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/content_hash.h"
#include "core/error.h"
#include "core/rng.h"
#include "exp/sweep.h"
#include "exp/trace_io.h"
#include "hc/workload_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kHotSet = 16;
constexpr std::size_t kClients = 2;
constexpr std::size_t kSolverThreads = 2;
/// One request in kMissEvery names a never-seen workload.
constexpr std::size_t kMissEvery = 10;
/// SE iterations per solve.
constexpr std::size_t kSteps = 10;
/// Requests per --seconds, sized so the timed phase lasts about --seconds
/// on a 4-core x86-64 guest with AVX2.
constexpr double kRequestsPerSecond = 37.0;

struct Op {
  bool hot = true;
  std::size_t index = 0;  // into the hot set or the miss list
};

std::vector<Op> make_ops(const Options& opts) {
  const std::size_t count = std::max<std::size_t>(
      kMissEvery,
      static_cast<std::size_t>(std::lround(opts.seconds * kRequestsPerSecond)));
  // Each block of kMissEvery ops holds one miss at a seed-chosen place;
  // hits walk the hot set in seed-shuffled rounds, so every hot workload
  // is requested equally often.
  sehc::Rng rng(sehc::derive_seed(opts.seed, {10}));
  std::vector<std::size_t> order(kHotSet);
  std::size_t next_hot = kHotSet;
  std::vector<Op> ops(count);
  std::size_t misses = 0;
  for (std::size_t block = 0; block * kMissEvery < count; ++block) {
    const std::size_t miss_at = block * kMissEvery + rng.below(kMissEvery);
    for (std::size_t j = block * kMissEvery;
         j < std::min(count, (block + 1) * kMissEvery); ++j) {
      if (j == miss_at) {
        ops[j] = Op{false, misses++};
        continue;
      }
      if (next_hot == kHotSet) {
        for (std::size_t i = 0; i < kHotSet; ++i) order[i] = i;
        rng.shuffle(std::span<std::size_t>(order));
        next_hot = 0;
      }
      ops[j] = Op{true, order[next_hot++]};
    }
  }
  return ops;
}

std::size_t count_misses(const std::vector<Op>& ops) {
  std::size_t n = 0;
  for (const Op& op : ops) n += op.hot ? 0 : 1;
  return n;
}

struct Instance {
  sehc::WorkloadParams params;
  sehc::Workload workload;
  sehc::ScheduleRequest request;
};

/// Workload i of a set (hot or miss, told apart by `salt`). All requests
/// are of one class, the library's default paper-scale one (k=100, l=20,
/// medium connectivity and heterogeneity, CCR 0.5): a class mix would make
/// the latency distribution multimodal, and its median would jump between
/// modes from seed to seed.
Instance make_instance(const Options& opts, std::size_t salt, std::size_t i) {
  sehc::WorkloadParams params;
  if (opts.tiny) {
    params.tasks = 16;
    params.machines = 4;
  }
  params.seed = sehc::derive_seed(opts.seed, {salt, i});
  Instance inst{params, sehc::make_workload(params), {}};
  inst.request.op = "solve";
  inst.request.engine = "SE";
  inst.request.seed = sehc::derive_seed(opts.seed, {salt + 1, i});
  inst.request.budget = sehc::Budget::steps(kSteps);
  inst.request.workload_text = sehc::workload_to_string(inst.workload);
  return inst;
}

struct State {
  std::vector<Instance> hot;
  std::vector<Instance> miss;
  std::vector<sehc::ScheduleResponse> cold;  // the hot set's cold solves
  std::string socket;
  std::unique_ptr<sehc::Server> server;

  State() = default;
  State(State&&) = default;
  State& operator=(State&&) = default;
  ~State() {
    if (server) {
      server->request_drain();
      server->join();
    }
  }
};

/// A client connection, closed on destruction.
class Connection {
 public:
  explicit Connection(const std::string& socket) : fd_(sehc::connect_unix(socket)) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

/// Runs `calls` round-robin over kClients connections, one thread each.
template <typename Call>
void on_clients(const std::string& socket, std::size_t calls, Call&& call) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const Connection conn(socket);
        for (std::size_t j = c; j < calls; j += kClients) call(conn.fd(), j);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) SEHC_CHECK(e.empty(), "perfbench: " + e);
}

/// Inputs (generated and serialised), a started server, and the warm-up:
/// the hot set's cold solves, then one repeat of each as a hit.
State set_up(const Options& opts, std::size_t misses, std::size_t index) {
  State state;
  for (std::size_t i = 0; i < kHotSet; ++i) state.hot.push_back(make_instance(opts, 11, i));
  for (std::size_t i = 0; i < misses; ++i) state.miss.push_back(make_instance(opts, 13, i));

  sehc::ServeOptions serve;
  state.socket = opts.rundir + "/s" + std::to_string(index) + ".sock";
  serve.socket_path = state.socket;
  serve.threads = kSolverThreads;
  state.server = std::make_unique<sehc::Server>(serve);
  state.server->start();

  state.cold.resize(kHotSet);
  on_clients(state.socket, kHotSet, [&](int fd, std::size_t j) {
    state.cold[j] = sehc::call_server(fd, state.hot[j].request);
  });
  on_clients(state.socket, kHotSet, [&](int fd, std::size_t j) {
    const sehc::ScheduleResponse r = sehc::call_server(fd, state.hot[j].request);
    SEHC_CHECK(r.cache_hit, "perfbench: warm-up repeat missed the cache");
  });
  return state;
}

struct Pass {
  double wall_seconds = 0.0;
  std::vector<double> latency_ms;
  std::vector<sehc::ScheduleResponse> replies;
  std::vector<char> answered;  // written by the client threads
  std::vector<std::string> errors;  // per op: transport failure, if any
  sehc::ServerStats before;
  sehc::ServerStats after;
};

Pass run_pass(State& state, const std::vector<Op>& ops, Tracer& tracer) {
  Pass pass;
  const std::size_t n = ops.size();
  pass.latency_ms.assign(n, 0.0);
  pass.replies.resize(n);
  pass.answered.assign(n, 0);
  pass.errors.resize(n);
  std::vector<Tracer> tracers(kClients, Tracer(tracer.enabled()));
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<Connection>(state.socket));
  }

  pass.before = state.server->stats_snapshot();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Tracer& t = tracers[c];
      for (std::size_t j = c; j < n; j += kClients) {
        const sehc::ScheduleRequest& req =
            ops[j].hot ? state.hot[ops[j].index].request
                       : state.miss[ops[j].index].request;
        try {
          ScopedSpan op(t, "op", static_cast<std::int64_t>(j));
          ScopedSpan call(t, "serve.call");
          const Clock::time_point sent = Clock::now();
          pass.replies[j] = sehc::call_server(conns[c]->fd(), req);
          pass.latency_ms[j] = seconds_since(sent) * 1e3;
          pass.answered[j] = 1;
          if (Span* s = call.span()) {
            // a/b = the reply's queue/solve milliseconds (0 on hits).
            s->name = pass.replies[j].cache_hit ? "serve.hit" : "serve.miss";
            s->a = pass.replies[j].queue_ms;
            s->b = pass.replies[j].solve_ms;
          }
        } catch (const std::exception& e) {
          // The connection is no longer trustworthy: this op and the rest
          // of this client's ops go unanswered.
          pass.errors[j] = e.what();
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  pass.wall_seconds = seconds_since(start);
  pass.after = state.server->stats_snapshot();
  for (const Tracer& t : tracers) tracer.absorb(t);
  return pass;
}

/// A schedule CSV carries times to four decimals. Its assignment and
/// start order determine the exact schedule, which must be valid, match
/// the CSV times and reproduce the reported makespan bit for bit.
std::string check_reply_schedule(const sehc::Workload& w,
                                 const sehc::ScheduleResponse& r) {
  std::istringstream is(r.schedule_csv);
  std::vector<sehc::ScheduleCsvRow> rows;
  try {
    rows = sehc::read_schedule_csv(is);
  } catch (const std::exception& e) {
    return std::string("unreadable schedule: ") + e.what();
  }
  if (rows.size() != w.num_tasks()) return "schedule has the wrong task count";
  sehc::Schedule csv;
  csv.assignment.assign(w.num_tasks(), 0);
  csv.start.assign(w.num_tasks(), 0.0);
  csv.finish.assign(w.num_tasks(), 0.0);
  for (const auto& row : rows) {
    if (row.task >= w.num_tasks() || row.machine >= w.num_machines()) {
      return "schedule names an unknown task or machine";
    }
    csv.assignment[row.task] = row.machine;
    csv.start[row.task] = row.start;
    csv.finish[row.task] = row.finish;
  }
  const sehc::SolutionString order = csv.to_solution();
  if (!order.is_valid(w.graph())) return "schedule order violates precedence";
  const sehc::Schedule exact = sehc::Schedule::from_solution(w, order);
  for (sehc::TaskId t = 0; t < w.num_tasks(); ++t) {
    if (std::abs(exact.start[t] - csv.start[t]) > 1e-3 ||
        std::abs(exact.finish[t] - csv.finish[t]) > 1e-3) {
      return "schedule times disagree with its assignment and order";
    }
  }
  return check_schedule(w, exact, r.makespan);
}

bool same_reply(const sehc::ScheduleResponse& a, const sehc::ScheduleResponse& b) {
  return std::bit_cast<std::uint64_t>(a.makespan) ==
             std::bit_cast<std::uint64_t>(b.makespan) &&
         a.evals == b.evals && a.schedule_csv == b.schedule_csv;
}

void check(const Options& opts, const State& state, const std::vector<Op>& ops,
           Pass& pass, Report& report) {
  if (opts.corrupt_op >= 0 && static_cast<std::size_t>(opts.corrupt_op) < ops.size()) {
    auto& r = pass.replies[static_cast<std::size_t>(opts.corrupt_op)];
    r.makespan = corrupted(r.makespan);
  }
  for (std::size_t j = 0; j < ops.size(); ++j) {
    const sehc::ScheduleResponse& r = pass.replies[j];
    if (!pass.answered[j]) {
      report.fail(j, pass.errors[j].empty() ? "unanswered"
                                            : "protocol error: " + pass.errors[j]);
    } else if (r.status != sehc::ServeStatus::kOk) {
      report.fail(j, std::string("status ") + sehc::to_string(r.status) + " " + r.error);
    } else if (r.timed_out) {
      report.fail(j, "timed out without a deadline");
    } else if (ops[j].hot) {
      if (!same_reply(r, state.cold[ops[j].index])) {
        report.fail(j, "repeat differs from the cold solve");
      }
    } else {
      const std::string why = check_reply_schedule(state.miss[ops[j].index].workload, r);
      if (!why.empty()) report.fail(j, why);
    }
  }
  // Re-solve the first miss in-process: the daemon's answer must be the
  // library's answer, bit for bit.
  for (std::size_t j = 0; j < ops.size(); ++j) {
    if (ops[j].hot || !pass.answered[j]) continue;
    const Instance& inst = state.miss[ops[j].index];
    Tracer off;
    const sehc::SearchResult again =
        traced_search(off, "SE", inst.workload, inst.request.budget, inst.request.seed);
    if (std::bit_cast<std::uint64_t>(again.best_makespan) !=
            std::bit_cast<std::uint64_t>(pass.replies[j].makespan) ||
        again.evals != pass.replies[j].evals) {
      report.fail(j, "in-process re-solve gave makespan " +
                         json_number(again.best_makespan) + ", the daemon " +
                         json_number(pass.replies[j].makespan));
    }
    break;
  }
}

void check_cold(const State& state, Report& report) {
  for (std::size_t i = 0; i < kHotSet; ++i) {
    const std::string why =
        state.cold[i].status != sehc::ServeStatus::kOk
            ? "cold solve status " + std::string(sehc::to_string(state.cold[i].status))
            : check_reply_schedule(state.hot[i].workload, state.cold[i]);
    // Every hit on this workload inherits a bad cold solve; charge op 0.
    if (!why.empty()) report.fail(0, "hot workload " + std::to_string(i) + ": " + why);
  }
}

/// The daemon's request-side work, repeated client-side on the hot set.
void serve_probes(const State& state, Tracer& tracer) {
  std::uint64_t sink = 0;
  for (const Instance& inst : state.hot) {
    const std::string payload = inst.request.serialize();
    {
      ScopedSpan s(tracer, "serve.request_parse");
      sink += sehc::ScheduleRequest::parse(payload).workload_text.size();
    }
    {
      ScopedSpan s(tracer, "serve.canonical");
      sink ^= sehc::content_hash64(
          inst.request.canonical_string(sehc::workload_to_string(inst.workload)));
    }
  }
  SEHC_CHECK(sink != 0, "perfbench: empty probe");
}

}  // namespace

Report run_serve_repeat(const Options& opts) {
  Report report;
  EndToEnd e2e;
  const std::vector<Op> ops = make_ops(opts);
  const std::size_t misses = count_misses(ops);
  State state = repeated_setup(
      [&](std::size_t i) { return set_up(opts, misses, i); }, e2e.setup_seconds);
  report.set_attempted(ops.size());
  check_cold(state, report);

  Tracer off;
  Pass pass = run_pass(state, ops, off);
  check(opts, state, ops, pass, report);
  std::vector<double> makespans;
  for (std::size_t j = 0; j < ops.size(); ++j) {
    makespans.push_back(pass.replies[j].makespan);
    if (pass.answered[j] && !pass.replies[j].cache_hit) {
      e2e.evals += static_cast<double>(pass.replies[j].evals);
    }
  }
  e2e.wall_seconds = pass.wall_seconds;
  e2e.ops = ops.size();
  e2e.latency_ms = pass.latency_ms;
  std::vector<const sehc::Workload*> inputs;
  for (const auto* set : {&state.hot, &state.miss}) {
    for (const Instance& inst : *set) inputs.push_back(&inst.workload);
  }
  report.meta("inputs", json_string(inputs_digest(inputs)));
  report.meta("digest", json_string(bits_digest(makespans)));
  report.meta("misses", std::to_string(misses));
  report.meta("steps_per_solve", std::to_string(kSteps));

  if (!opts.trace) {
    add_end_to_end(report, e2e);
    return report;
  }
  // A fresh server gives the traced pass the untraced pass's cache state.
  State fresh = set_up(opts, misses, kSetups);
  check_cold(fresh, report);
  Tracer tracer(true);
  Pass traced = run_pass(fresh, ops, tracer);
  check(opts, fresh, ops, traced, report);
  std::vector<sehc::WorkloadParams> probes;
  for (const Instance& inst : fresh.hot) probes.push_back(inst.params);
  run_layer_probes(tracer, probes, opts.seed);
  serve_probes(fresh, tracer);

  const sehc::ServerStats& a = traced.before;
  const sehc::ServerStats& b = traced.after;
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double lookups = hits + static_cast<double>(b.cache_misses - a.cache_misses);
  const double requests = static_cast<double>(b.requests - a.requests);
  const double untraced_rate = static_cast<double>(ops.size()) / pass.wall_seconds;
  const double traced_rate = static_cast<double>(ops.size()) / traced.wall_seconds;
  add_layer_metrics(
      report, tracer,
      {{"serve.hit_frac", lookups > 0 ? hits / lookups : 0.0},
       {"serve.workload_cache_hit_frac",
        requests > 0
            ? static_cast<double>(b.workload_cache_hits - a.workload_cache_hits) / requests
            : 0.0},
       {"serve.coalesced", static_cast<double>(b.coalesced - a.coalesced)},
       {"serve.queue_peak", static_cast<double>(b.queue_peak)},
       {"serve.shed", static_cast<double>(b.shed - a.shed)},
       {"trace.overhead_ops_per_s", traced_rate - untraced_rate}});
  report.meta("untraced_ops_per_s", json_number(untraced_rate));
  report.meta("traced_ops_per_s", json_number(traced_rate));
  report.log(self_time_table(tracer));
  tracer.write_csv(opts.workdir + "/serve-repeat-seed" + std::to_string(opts.seed) +
                   ".spans.csv");
  return report;
}

}  // namespace perfbench
