// Simulated Evolution engine for matching & scheduling in HC (paper §3-4).
//
// Evaluation -> Selection -> Allocation, repeated for as long as the driver
// asks. The engine records a per-iteration trace (number of selected
// subtasks, current and best schedule length, wall time) — exactly the
// series plotted in the paper's Figures 3-7.
//
// SeEngine implements the library-wide stepwise SearchEngine interface
// (search/engine.h): one step() is one SE iteration, and run_search under a
// Budget decides when the search stops.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "core/timer.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "sched/schedule.h"
#include "se/allocation.h"
#include "search/engine.h"

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

class SeEngine final : public SearchEngine {
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

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return "SE"; }
  void init() override;
  StepStats step() override;
  double best_makespan() const override { return best_makespan_; }
  std::size_t steps_done() const override { return iteration_; }
  std::size_t evals_used() const override { return evaluator_.trial_count(); }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  const Workload* workload_;
  SeParams params_;
  double bias_;
  Evaluator evaluator_;
  std::vector<double> optimal_;       // O_i, fixed for the whole run
  std::vector<int> levels_;           // DAG levels for selection ordering
  MachineCandidates candidates_;      // Y-restricted machines, flat table
  Evaluator::TrialBatch batch_;       // persistent allocation-scan batch
  std::optional<SolutionString> initial_;  // caller-supplied start, if any

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  Rng rng_{1};
  WallTimer timer_;
  SolutionString current_;
  SolutionString best_solution_;
  double best_makespan_ = 0.0;
  std::size_t iteration_ = 0;         // completed iterations
  std::vector<SeIterationStats> trace_;
  // Per-iteration work buffers, hoisted so step() performs no heap
  // allocation after the first iteration.
  ScheduleTimes times_;
  std::vector<double> good_;
  std::vector<TaskId> selected_;
};

}  // namespace sehc
