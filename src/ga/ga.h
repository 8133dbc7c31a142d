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
// GaEngine is a Searcher (search/searcher.h): one step() is one generation.
#pragma once

#include <cstdint>
#include <vector>

#include "search/searcher.h"

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

class GaEngine final : public Searcher {
 public:
  GaEngine(const Workload& workload, GaParams params);

  /// One row per completed generation since init() (empty when
  /// record_trace is off).
  const std::vector<GaIterationStats>& trace() const { return trace_; }

  std::string name() const override { return "GA"; }

 private:
  void start() override;
  void advance() override;

  GaParams params_;

  // Stepwise state (valid after init()).
  std::vector<SolutionString> pop_;
  std::vector<double> lengths_;
  // Double buffer for the next generation, and the odd child that does not
  // fit in it (see step()).
  std::vector<SolutionString> next_;
  std::vector<double> next_lengths_;
  SolutionString spare_;
  std::vector<GaIterationStats> trace_;
};

}  // namespace sehc
