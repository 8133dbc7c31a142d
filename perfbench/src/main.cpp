// perfbench: the repository's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload campaign-equal-evals|serve-repeat
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Prints a log, one `meta {...}` line of run metadata, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// Exit status: 0 when every check passed, 1 when an op failed a check, 2 on
// a usage or set-up error (no result line).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/stats.h"
#include "workloads.h"

namespace perfbench {

void add_end_to_end(Report& report, const EndToEnd& e2e) {
  const double wall = e2e.wall_seconds > 0 ? e2e.wall_seconds : 1e-9;
  const Tail tail = tail_latency(e2e.latency_ms);
  report.add("setup_s", sehc::percentile(e2e.setup_seconds, 50.0), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add("ops_per_s", static_cast<double>(e2e.ops) / wall, "1/s");
  report.add("evals_per_s", e2e.evals / wall, "1/s");
  report.add("p50_ms", sehc::percentile(e2e.latency_ms, 50.0), "ms");
  report.add("tail_ms", tail.value, "ms");
  std::ostringstream t;
  t << "{\"percentile\": " << tail.percentile << ", \"samples\": " << tail.samples
    << ", \"beyond\": " << tail.beyond << "}";
  report.meta("tail", t.str());
  std::string setups = "[";
  for (std::size_t i = 0; i < e2e.setup_seconds.size(); ++i) {
    setups += (i ? ", " : "") + json_number(e2e.setup_seconds[i]);
  }
  report.meta("setup_s_samples", setups + "]");
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload campaign-equal-evals|serve-repeat"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--workdir DIR] [--tiny] [--corrupt-op N]\n",
               why);
  return 2;
}

void print(const Options& opts, const Report& report) {
  std::cout << report.log();
  for (const Metric& m : report.metrics()) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-32s %18.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
  for (const std::string& note : report.failure_notes()) {
    std::cout << "FAILED " << note << '\n';
  }
  std::cout << "meta {\"workload\": " << json_string(opts.workload)
            << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
            << ", \"trace\": " << (opts.trace ? 1 : 0)
            << ", \"ops\": " << report.attempted()
            << ", \"host\": " << host_fingerprint_json();
  for (const auto& [key, json] : report.meta()) {
    std::cout << ", " << json_string(key) << ": " << json;
  }
  std::cout << "}\n";

  std::cout << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted()
            << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    std::cout << (first ? "" : ", ") << json_string(m.name)
              << ": {\"value\": " << json_number(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool have_seed = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--tiny") {
        opts.tiny = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opts.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opts.trace = value == "1";
        have_trace = true;
      } else if (flag == "--workdir") {
        opts.workdir = value;
      } else if (flag == "--corrupt-op") {
        opts.corrupt_op = std::stol(value);
      } else {
        return usage(("unknown option " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_trace) return usage("--seed and --trace are required");
  if (opts.seconds < 1) return usage("--seconds must be at least 1");

  opts.rundir = opts.workdir + "/run-" + std::to_string(getpid());
  // Removes the per-run scratch however the run ends.
  struct RunDir {
    std::string path;
    ~RunDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } rundir{opts.rundir};
  try {
    std::filesystem::create_directories(opts.rundir);
    Report report;
    if (opts.workload == "campaign-equal-evals") {
      report = run_campaign_equal_evals(opts);
    } else if (opts.workload == "serve-repeat") {
      report = run_serve_repeat(opts);
    } else {
      return usage(("unknown workload '" + opts.workload + "'").c_str());
    }
    print(opts, report);
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
