// The workloads. Each builds its inputs from the workload seed, sets up
// (repeatedly, for a steady setup_s), runs its fixed op list once
// untraced for the end-to-end metrics, checks every result, and with
// --trace 1 runs the list again under spans for the per-layer metrics.
#pragma once

#include <algorithm>
#include <vector>

#include "common.h"

namespace perfbench {

Report run_campaign_equal_evals(const Options& opts);
Report run_serve_repeat(const Options& opts);

/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetups = 3;

/// Runs `setup(i)` kSetups times and keeps the last state; earlier states
/// are torn down outside the timed intervals. Records each repetition's
/// duration in `seconds`, the first counted from process start (setup_s is
/// "process start to the first timed op").
template <typename Setup>
auto repeated_setup(Setup&& setup, std::vector<double>& seconds) {
  Clock::time_point t0 = process_start();
  for (std::size_t i = 0;; ++i) {
    {
      auto state = setup(i);
      seconds.push_back(seconds_since(t0));
      if (i + 1 >= kSetups) return state;
    }
    t0 = Clock::now();
  }
}

/// The end-to-end metrics every workload prints, in BENCHMARK.json order.
struct EndToEnd {
  std::vector<double> setup_seconds;
  double wall_seconds = 0.0;   // timed phase
  std::size_t ops = 0;
  double evals = 0.0;          // evaluator trials the timed phase counted
  std::vector<double> latency_ms;
};
void add_end_to_end(Report& report, const EndToEnd& e2e);

}  // namespace perfbench
