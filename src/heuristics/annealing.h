// Simulated annealing on the combined string encoding — an extra iterative
// baseline (the paper's reference [8] explores the genetic/annealing family
// for the same problem).
//
// Neighborhood: move a random task within its valid range and/or reassign
// it to a random machine. Acceptance: Metropolis. Cooling: geometric, with
// the initial temperature calibrated from the mean uphill delta of a short
// random walk.
//
// SaEngine implements the stepwise SearchEngine interface (search/engine.h):
// one step() is one proposed move (trial + Metropolis test). The T0
// calibration walk happens inside init().
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/timer.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "sched/schedule.h"
#include "search/engine.h"

namespace sehc {

struct SaParams {
  double cooling = 0.95;           // geometric factor per temperature step
  /// Moves between cooling steps (positive). The engine does not know its
  /// budget, so a caller that wants the schedule to sweep ~200 temperature
  /// levels (T0 -> ~3e-5 * T0) over a run sets budget / 200 here (see
  /// comparison_sa_params in heuristics/scheduler.h).
  std::size_t steps_per_temp = 100;
  std::uint64_t seed = 1;
};

class SaEngine final : public SearchEngine {
 public:
  SaEngine(const Workload& workload, SaParams params);

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return "SA"; }
  void init() override;
  StepStats step() override;
  double best_makespan() const override { return best_len_; }
  std::size_t steps_done() const override { return iteration_; }
  std::size_t evals_used() const override { return eval_.trial_count(); }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  const Workload* workload_;
  SaParams params_;
  // Every proposed move, the T0 calibration walk's included, is a prepared
  // trial on the snapshots of `current_` (see annealing.cpp).
  Evaluator eval_;

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  Rng rng_{1};
  WallTimer timer_;
  SolutionString current_;
  SolutionString best_;
  double current_len_ = 0.0;
  double best_len_ = 0.0;
  double temperature_ = 0.0;
  std::size_t since_cool_ = 0;
  std::size_t iteration_ = 0;  // completed moves
};

}  // namespace sehc
