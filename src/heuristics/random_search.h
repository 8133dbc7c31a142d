// Random search baseline: sample independent random valid solutions and
// keep the best. The weakest sensible comparator; iterative heuristics must
// beat it to justify their machinery.
//
// RandomSearchEngine implements the stepwise SearchEngine interface
// (search/engine.h): one step() draws and evaluates one random solution
// (exactly one evaluator trial), and random_search_schedule() is a thin
// wrapper over the step core (bit-identical at fixed seeds).
#pragma once

#include <cstdint>
#include <limits>

#include "core/rng.h"
#include "core/timer.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "sched/schedule.h"
#include "search/engine.h"

namespace sehc {

class RandomSearchEngine final : public SearchEngine {
 public:
  /// `evaluations` caps the number of samples; use
  /// std::numeric_limits<std::size_t>::max() for externally-budgeted runs.
  RandomSearchEngine(const Workload& workload, std::size_t evaluations,
                     std::uint64_t seed);

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return "Random"; }
  void init() override;
  StepStats step() override;
  bool done() const override;
  double best_makespan() const override { return best_len_; }
  std::size_t steps_done() const override { return iteration_; }
  std::size_t evals_used() const override { return eval_.trial_count(); }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  const Workload* workload_;
  std::size_t evaluations_;
  std::uint64_t seed_;
  Evaluator eval_;

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  Rng rng_{1};
  WallTimer timer_;
  SolutionString best_;
  SolutionString candidate_;  // reused by every draw
  double best_len_ = std::numeric_limits<double>::infinity();
  std::size_t iteration_ = 0;  // samples drawn
};

/// Draws `evaluations` random valid solutions; returns the best schedule.
Schedule random_search_schedule(const Workload& w, std::size_t evaluations,
                                std::uint64_t seed);

}  // namespace sehc
