// Load generator / latency bench for the scheduling service (sehc_serve).
//
//   sehc_loadgen --socket PATH [--requests N] [--rate RPS] [--connections C]
//                [--engine NAME] [--budget TOKEN] [--deadline-ms MS]
//                [--workloads W] [--seed S] [--tasks K] [--machines L]
//                [--out BENCH_serve.json] [--metrics-out PATH]
//                [--assert-p99-ms MS] [--assert-hit-rate R]
//                [--assert-metrics]
//
// Open-loop arrivals: request i's intended send time is drawn from an
// exponential inter-arrival process at --rate (deterministic under --seed),
// and each sender sleeps until that instant regardless of how the server is
// doing — so measured latency includes the queueing the server actually
// imposes, which closed-loop (send-after-reply) clients systematically hide
// (coordinated omission). Latency is measured from the *intended* arrival
// time to the response.
//
// Requests rotate through --workloads distinct generated workloads and
// --connections persistent connections (request i on connection i%C), so
// the run exercises the response cache (repeats), coalescing (concurrent
// identical requests) and admission control (bursts beyond capacity) at
// once. Shed (`overloaded`) replies are counted, not retried.
//
// Emits BENCH_serve.json (throughput, p50/p90/p99 latency, shed rate, cache
// hit rate, plus the server's own stats-endpoint counters), committed at
// the repo root the same way BENCH_hotpath.json is. Exit is nonzero on any
// protocol error or status=error reply, and when a run misses a gate it
// was given: --assert-p99-ms (the client p99 must be under MS),
// --assert-hit-rate (the response-cache hit rate must be at least R) or
// --assert-metrics (the server's op=metrics snapshot must have recorded
// solves and request latencies, and name the strip kernel that ran). The
// smoke gate tools/serve_check.sh relies on that and parses no JSON.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/options.h"
#include "core/rng.h"
#include "hc/workload_io.h"
#include "serve/protocol.h"
#include "workload/generator.h"
#include "workload/params.h"

namespace {

using namespace sehc;
using Clock = std::chrono::steady_clock;

struct Sample {
  double latency_ms = 0.0;
  ServeStatus status = ServeStatus::kOk;
  bool cache_hit = false;
  bool timed_out = false;
  /// False when the sender's connection died before this request got a
  /// response — such samples count as unanswered, never as ok.
  bool answered = false;
};

/// Nearest-rank percentile of an already-sorted latency vector.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

constexpr std::string_view kUsage =
    "usage: sehc_loadgen --socket PATH [--requests N] [--rate RPS]\n"
    "                    [--connections C] [--engine NAME]\n"
    "                    [--budget steps:N|evals:N|seconds:S]\n"
    "                    [--deadline-ms MS] [--workloads W] [--seed S]\n"
    "                    [--tasks K] [--machines L] [--out PATH]\n"
    "                    [--metrics-out PATH] [--assert-p99-ms MS]\n"
    "                    [--assert-hit-rate R] [--assert-metrics]\n";

int run(int argc, char** argv) {
  const Options opts(
      argc, argv,
      {"socket", "requests", "rate", "connections", "engine", "budget",
       "deadline-ms", "workloads", "seed", "tasks", "machines", "out",
       "metrics-out", "assert-p99-ms", "assert-hit-rate",
       "assert-metrics"});
  if (!opts.has("socket")) throw UsageError("--socket PATH is required");

  const std::string socket_path = opts.get("socket", "");
  const std::size_t requests =
      static_cast<std::size_t>(opts.get_int("requests", 200));
  const double rate = opts.get_double("rate", 50.0);
  const std::size_t connections =
      static_cast<std::size_t>(opts.get_int("connections", 4));
  const std::string engine = opts.get("engine", "SE");
  const Budget budget =
      ScheduleRequest::parse_budget_token(opts.get("budget", "steps:40"));
  const double deadline_ms = opts.get_double("deadline-ms", 0.0);
  const std::size_t n_workloads =
      static_cast<std::size_t>(opts.get_int("workloads", 8));
  const std::uint64_t seed = opts.get_seed("seed", 1);
  const std::size_t tasks =
      static_cast<std::size_t>(opts.get_int("tasks", 40));
  const std::size_t machines =
      static_cast<std::size_t>(opts.get_int("machines", 8));
  const std::string out_path = opts.get("out", "BENCH_serve.json");
  const std::string metrics_out_path = opts.get("metrics-out", "");
  const double assert_p99_ms = opts.get_double("assert-p99-ms", 0.0);
  const double assert_hit_rate = opts.get_double("assert-hit-rate", 0.0);
  SEHC_CHECK(requests > 0 && rate > 0.0 && connections > 0 &&
                 n_workloads > 0,
             "loadgen: requests, rate, connections and workloads must be "
             "positive");

  // Pre-render the workload documents so serialization cost is not on the
  // request path.
  std::vector<std::string> workload_texts;
  for (std::size_t i = 0; i < n_workloads; ++i) {
    WorkloadParams params;
    params.tasks = tasks;
    params.machines = machines;
    params.seed = seed + i;
    workload_texts.push_back(workload_to_string(make_workload(params)));
  }

  // Deterministic open-loop arrival schedule: cumulative exponential
  // inter-arrival gaps at `rate` requests/second.
  Rng rng(seed);
  std::vector<double> arrival_s(requests);
  double t = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    const double u = std::max(rng.uniform(), 1e-12);
    t += -std::log(u) / rate;
    arrival_s[i] = t;
  }

  std::vector<Sample> samples(requests);
  std::atomic<std::uint64_t> protocol_errors{0};
  const Clock::time_point start = Clock::now();

  // Each sender owns one persistent connection and the request indices
  // assigned to it (i % connections), sending each at its intended time.
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < connections; ++c) {
    senders.emplace_back([&, c] {
      int fd = -1;
      try {
        fd = connect_unix(socket_path);
        for (std::size_t i = c; i < requests; i += connections) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(arrival_s[i]));
          std::this_thread::sleep_until(due);

          ScheduleRequest req;
          req.engine = engine;
          req.seed = seed + i % n_workloads;  // fixed per workload: repeats
                                              // are cache-identical
          req.budget = budget;
          req.deadline_ms = deadline_ms;
          req.workload_text = workload_texts[i % n_workloads];

          const ScheduleResponse resp = call_server(fd, req);
          Sample& s = samples[i];
          s.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count();
          s.status = resp.status;
          s.cache_hit = resp.cache_hit;
          s.timed_out = resp.timed_out;
          s.answered = true;
        }
      } catch (const ProtocolError& e) {
        protocol_errors.fetch_add(1);
        std::fprintf(stderr, "loadgen: connection %zu: %s\n", c, e.what());
      }
      if (fd >= 0) ::close(fd);
    });
  }
  for (std::thread& th : senders) th.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // One stats and one metrics round-trip after the run: the server's own
  // counters and its observability snapshot (phase timings, latency
  // histograms) go into the bench file next to the client-side view.
  std::vector<std::pair<std::string, std::string>> server_stats;
  std::vector<std::pair<std::string, std::string>> server_metrics;
  try {
    const int fd = connect_unix(socket_path);
    ScheduleRequest stats_req;
    stats_req.op = "stats";
    stats_req.workload_text.clear();
    server_stats = call_server(fd, stats_req).extra;
    stats_req.op = "metrics";
    server_metrics = call_server(fd, stats_req).extra;
    ::close(fd);
  } catch (const ProtocolError& e) {
    protocol_errors.fetch_add(1);
    std::fprintf(stderr, "loadgen: stats: %s\n", e.what());
  }
  // Server-side request latency quantiles (the histogram is in µs; the
  // values are exact bucket lower bounds, see obs/metrics.h). Having both
  // views side by side separates queueing imposed by open-loop arrivals
  // (client-only) from time spent inside the server.
  const auto metric_value = [&](const std::string& key) {
    for (const auto& [k, v] : server_metrics) {
      if (k == key) return std::strtod(v.c_str(), nullptr);
    }
    return 0.0;
  };
  const double server_p50 = metric_value("hist.latency/request_us.p50") / 1e3;
  const double server_p90 = metric_value("hist.latency/request_us.p90") / 1e3;
  const double server_p99 = metric_value("hist.latency/request_us.p99") / 1e3;

  std::vector<double> ok_latencies;
  std::size_t ok = 0, shed = 0, errors = 0, hits = 0, timeouts = 0;
  std::size_t unanswered = 0;
  for (const Sample& s : samples) {
    if (!s.answered) {
      ++unanswered;
      continue;
    }
    switch (s.status) {
      case ServeStatus::kOk:
        ++ok;
        ok_latencies.push_back(s.latency_ms);
        if (s.cache_hit) ++hits;
        if (s.timed_out) ++timeouts;
        break;
      case ServeStatus::kOverloaded:
        ++shed;
        break;
      case ServeStatus::kError:
        ++errors;
        break;
    }
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  const double p50 = percentile(ok_latencies, 50.0);
  const double p90 = percentile(ok_latencies, 90.0);
  const double p99 = percentile(ok_latencies, 99.0);
  const double throughput = ok / std::max(elapsed_s, 1e-9);
  const double shed_rate =
      static_cast<double>(shed) / static_cast<double>(requests);
  const double hit_rate = ok == 0 ? 0.0 : static_cast<double>(hits) / ok;

  std::fprintf(stderr,
               "loadgen: %zu requests in %.2fs: ok=%zu shed=%zu errors=%zu "
               "unanswered=%zu "
               "cache_hits=%zu timeouts=%zu protocol_errors=%llu\n"
               "loadgen: throughput=%.1f/s p50=%.2fms p90=%.2fms "
               "p99=%.2fms\n",
               requests, elapsed_s, ok, shed, errors, unanswered, hits,
               timeouts,
               static_cast<unsigned long long>(protocol_errors.load()),
               throughput, p50, p90, p99);
  if (!server_metrics.empty()) {
    std::fprintf(stderr,
                 "loadgen: server-side p50=%.2fms p90=%.2fms p99=%.2fms "
                 "(histogram bucket floors)\n",
                 server_p50, server_p90, server_p99);
  }

  FILE* json = std::fopen(out_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "loadgen: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"serve_loadgen\",\n");
  std::fprintf(json, "  \"engine\": \"%s\",\n", engine.c_str());
  std::fprintf(json, "  \"budget\": \"%s\",\n",
               ScheduleRequest::budget_token(budget).c_str());
  std::fprintf(json, "  \"requests\": %zu,\n", requests);
  std::fprintf(json, "  \"rate_target_per_sec\": %.1f,\n", rate);
  std::fprintf(json, "  \"connections\": %zu,\n", connections);
  std::fprintf(json, "  \"workloads\": %zu,\n", n_workloads);
  std::fprintf(json, "  \"tasks\": %zu,\n  \"machines\": %zu,\n", tasks,
               machines);
  std::fprintf(json, "  \"deadline_ms\": %.1f,\n", deadline_ms);
  std::fprintf(json, "  \"elapsed_seconds\": %.3f,\n", elapsed_s);
  std::fprintf(json, "  \"throughput_per_sec\": %.1f,\n", throughput);
  std::fprintf(json, "  \"latency_ms\": {\n");
  std::fprintf(json, "    \"p50\": %.3f,\n", p50);
  std::fprintf(json, "    \"p90\": %.3f,\n", p90);
  std::fprintf(json, "    \"p99\": %.3f\n", p99);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"server_latency_ms\": {\n");
  std::fprintf(json, "    \"p50\": %.3f,\n", server_p50);
  std::fprintf(json, "    \"p90\": %.3f,\n", server_p90);
  std::fprintf(json, "    \"p99\": %.3f\n", server_p99);
  std::fprintf(json, "  },\n");
  std::fprintf(json, "  \"ok\": %zu,\n", ok);
  std::fprintf(json, "  \"shed\": %zu,\n", shed);
  std::fprintf(json, "  \"errors\": %zu,\n", errors);
  std::fprintf(json, "  \"unanswered\": %zu,\n", unanswered);
  std::fprintf(json, "  \"shed_rate\": %.4f,\n", shed_rate);
  std::fprintf(json, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(json, "  \"timeouts\": %zu,\n", timeouts);
  std::fprintf(json, "  \"protocol_errors\": %llu,\n",
               static_cast<unsigned long long>(protocol_errors.load()));
  std::fprintf(json, "  \"server\": {\n");
  for (std::size_t i = 0; i < server_stats.size(); ++i) {
    std::fprintf(json, "    \"%s\": %s%s\n", server_stats[i].first.c_str(),
                 server_stats[i].second.c_str(),
                 i + 1 < server_stats.size() ? "," : "");
  }
  std::fprintf(json, "  },\n");
  // The op=metrics snapshot, flattened: every value the server returns is
  // a bare number, so it embeds as-is.
  std::fprintf(json, "  \"server_metrics\": {\n");
  for (std::size_t i = 0; i < server_metrics.size(); ++i) {
    std::fprintf(json, "    \"%s\": %s%s\n",
                 server_metrics[i].first.c_str(),
                 server_metrics[i].second.c_str(),
                 i + 1 < server_metrics.size() ? "," : "");
  }
  std::fprintf(json, "  }\n}\n");
  std::fclose(json);
  std::fprintf(stderr, "loadgen: wrote %s\n", out_path.c_str());

  if (!metrics_out_path.empty()) {
    FILE* mf = std::fopen(metrics_out_path.c_str(), "w");
    if (!mf) {
      std::fprintf(stderr, "loadgen: cannot open %s for writing\n",
                   metrics_out_path.c_str());
      return 1;
    }
    for (const auto& [k, v] : server_metrics) {
      std::fprintf(mf, "%s=%s\n", k.c_str(), v.c_str());
    }
    std::fclose(mf);
    std::fprintf(stderr, "loadgen: wrote %s\n", metrics_out_path.c_str());
  }

  // Gates: each prints the measured value next to its bound.
  bool gates_ok = true;
  if (opts.has("assert-p99-ms")) {
    const bool ok = p99 < assert_p99_ms;
    std::fprintf(stderr, "loadgen: %s: client p99=%.3fms, must be under "
                 "--assert-p99-ms %g\n", ok ? "ok" : "FAIL", p99,
                 assert_p99_ms);
    gates_ok = gates_ok && ok;
  }
  if (opts.has("assert-hit-rate")) {
    const bool ok = hit_rate >= assert_hit_rate;
    std::fprintf(stderr, "loadgen: %s: cache_hit_rate=%.4f, must be at "
                 "least --assert-hit-rate %g\n", ok ? "ok" : "FAIL",
                 hit_rate, assert_hit_rate);
    gates_ok = gates_ok && ok;
  }
  if (opts.has("assert-metrics")) {
    // The snapshot is live: solves left spans, requests left latencies,
    // and the evaluator named the strip kernel it ran (gauge.kernel/<name>).
    for (const char* key :
         {"phase.request/solve.visits", "hist.latency/request_us.count"}) {
      const double value = metric_value(key);
      const bool ok = value > 0.0;
      std::fprintf(stderr, "loadgen: %s: %s=%.0f, must be positive "
                   "(--assert-metrics)\n", ok ? "ok" : "FAIL", key, value);
      gates_ok = gates_ok && ok;
    }
    std::string kernel = "none";
    for (const auto& [k, v] : server_metrics) {
      if (k.rfind("gauge.kernel/", 0) == 0 && v == "1") {
        kernel = k + "=1";
        break;
      }
    }
    const bool ok = kernel != "none";
    std::fprintf(stderr, "loadgen: %s: kernel gauge %s, must be a "
                 "gauge.kernel/<backend> reading 1 (--assert-metrics)\n",
                 ok ? "ok" : "FAIL", kernel.c_str());
    gates_ok = gates_ok && ok;
  }
  return (protocol_errors.load() > 0 || errors > 0 || !gates_ok) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run, kUsage);
}
