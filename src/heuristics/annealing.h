// Simulated annealing on the combined string encoding — an extra iterative
// baseline (the paper's reference [8] explores the genetic/annealing family
// for the same problem).
//
// Neighborhood: move a random task within its valid range and/or reassign
// it to a random machine. Acceptance: Metropolis. Cooling: geometric, with
// the initial temperature calibrated from the mean uphill delta of a short
// random walk.
//
// SaEngine is a Searcher (search/searcher.h): one step() is one proposed
// move (trial + Metropolis test). The T0 calibration walk happens inside
// init().
#pragma once

#include <cstdint>

#include "search/searcher.h"

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

class SaEngine final : public Searcher {
 public:
  SaEngine(const Workload& workload, SaParams params);

  std::string name() const override { return "SA"; }

 private:
  void start() override;
  void advance() override;

  SaParams params_;

  // Stepwise state (valid after init()). Every proposed move, the T0
  // calibration walk's included, is a prepared trial on the evaluator's
  // snapshots of `current_` (see annealing.cpp).
  SolutionString current_;
  double current_len_ = 0.0;
  double temperature_ = 0.0;
  std::size_t since_cool_ = 0;
};

}  // namespace sehc
