// Simulated Evolution engine for matching & scheduling in HC (paper §3-4).
//
// Evaluation -> Selection -> Allocation, repeated for as long as the driver
// asks. The engine records a per-iteration trace (number of selected
// subtasks, current and best schedule length, wall time) — exactly the
// series plotted in the paper's Figures 3-7.
//
// SeEngine is a Searcher (search/searcher.h): one step() is one SE
// iteration, and run_search under a Budget decides when the search stops.
// Under an ambient metrics registry every step adds its selected count and
// its moved-task count to the counters `engine/<name>/selected` and
// `engine/<name>/moved`.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "se/allocation.h"
#include "search/searcher.h"

namespace sehc {

struct SeParams {
  /// Selection bias B (paper §4.4). NaN means "use default_bias(k)".
  double bias = std::numeric_limits<double>::quiet_NaN();
  /// Y parameter (paper §4.5): number of best-matching machines tried per
  /// task during allocation. 0 = all machines.
  std::size_t y_limit = 0;
  std::uint64_t seed = 1;
  /// Re-validate the string's topological validity every iteration (tests).
  bool verify_invariants = false;
  /// Record the per-iteration trace (disable for microbenchmarks).
  bool record_trace = true;
  /// The registry name the engine reports (`SE`, `SE[Y=9]`, ...; see
  /// heuristics/scheduler.h). It names the engine's metrics counters.
  std::string name = "SE";
};

/// One row of the convergence trace.
struct SeIterationStats {
  std::size_t iteration = 0;
  std::size_t num_selected = 0;       // |S| after the selection step
  std::size_t tasks_moved = 0;        // placements changed by allocation
  double current_makespan = 0.0;      // schedule length of current solution
  double best_makespan = 0.0;         // best seen so far
  double elapsed_seconds = 0.0;
};

class SeEngine final : public Searcher {
 public:
  /// Starts from a random initial solution (paper §4.2). The workload must
  /// outlive the engine.
  SeEngine(const Workload& workload, SeParams params);

  /// Starts from `initial` instead (e.g. a constructive heuristic's
  /// schedule); throws sehc::Error unless it is a valid topological string.
  SeEngine(const Workload& workload, SeParams params, SolutionString initial);

  /// Effective bias after resolving the NaN default.
  double effective_bias() const { return bias_; }

  /// One row per completed iteration since init() (empty when
  /// record_trace is off).
  const std::vector<SeIterationStats>& trace() const { return trace_; }

  std::string name() const override { return params_.name; }

 private:
  void start() override;
  void advance() override;

  SeParams params_;
  double bias_;
  std::vector<double> optimal_;       // O_i, fixed for the whole run
  std::vector<int> levels_;           // DAG levels for selection ordering
  MachineCandidates candidates_;      // Y-restricted machines, flat table
  Evaluator::TrialBatch batch_;       // persistent allocation-scan batch
  std::optional<SolutionString> initial_;  // caller-supplied start, if any
  std::string selected_counter_;      // engine/<name>/selected
  std::string moved_counter_;         // engine/<name>/moved

  // Stepwise state (valid after init()).
  SolutionString current_;
  std::vector<SeIterationStats> trace_;
  // Per-iteration work buffers, hoisted so step() performs no heap
  // allocation after the first iteration.
  ScheduleTimes times_;
  std::vector<double> good_;
  std::vector<TaskId> selected_;
};

}  // namespace sehc
