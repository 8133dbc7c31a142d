// Genetic-algorithm baseline for matching & scheduling in HC, after Wang et
// al. (JPDC 1997), the comparison point used in the paper's §5.3.
//
// Structure: generational GA with roulette-wheel selection over
// makespan-derived fitness, elitism (the best chromosome always survives),
// matching + scheduling crossover, and matching + scheduling mutation. The
// initial population consists of random machine assignments paired with
// random topological orders.
//
// Wang et al.'s exact parameter values are not all published in the SE
// paper; the defaults below are the commonly used settings for this GA
// family (population 50, crossover 0.6, mutation 0.1, elitism 1) and are
// configurable. How long the GA runs is the caller's Budget, as for every
// searcher, so SE and GA are compared at equal effort.
//
// GaEngine implements the stepwise SearchEngine interface (search/engine.h):
// one step() is one generation.
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

struct GaParams {
  std::size_t population = 50;
  double crossover_prob = 0.6;
  double mutation_prob = 0.1;
  /// Number of top chromosomes copied unchanged into the next generation.
  std::size_t elite = 1;
  std::uint64_t seed = 1;
  bool verify_invariants = false;
  bool record_trace = true;
};

struct GaIterationStats {
  std::size_t generation = 0;
  double best_makespan = 0.0;     // best ever
  double gen_best_makespan = 0.0; // best within this generation
  double gen_mean_makespan = 0.0;
  double elapsed_seconds = 0.0;
};

class GaEngine final : public SearchEngine {
 public:
  GaEngine(const Workload& workload, GaParams params);

  /// One row per completed generation since init() (empty when
  /// record_trace is off).
  const std::vector<GaIterationStats>& trace() const { return trace_; }

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return "GA"; }
  void init() override;
  StepStats step() override;
  double best_makespan() const override { return best_makespan_; }
  std::size_t steps_done() const override { return generation_; }
  std::size_t evals_used() const override { return eval_.trial_count(); }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  const Workload* workload_;
  GaParams params_;
  Evaluator eval_;
  // Mutation-only children are evaluated as per-parent TrialBatches on top
  // of the parent's prepared state (see ga.cpp).
  Evaluator::TrialBatch batch_;

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  Rng rng_{1};
  WallTimer timer_;
  std::vector<SolutionString> pop_;
  std::vector<double> lengths_;
  // Double buffer for the next generation, and the odd child that does not
  // fit in it (see step()).
  std::vector<SolutionString> next_;
  std::vector<double> next_lengths_;
  SolutionString spare_;
  SolutionString best_solution_;
  double best_makespan_ = 0.0;
  std::size_t generation_ = 0;  // completed generations
  std::vector<GaIterationStats> trace_;
};

}  // namespace sehc
