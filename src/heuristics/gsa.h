// GSA — Genetic Simulated Annealing, after Shroff, Watson, Flann & Freund
// (HCW 1996), reference [8] of the paper ("Genetic Simulated Annealing for
// Scheduling Data-Dependent Tasks in Heterogeneous Environments").
//
// A generational GA whose survivor selection is a Metropolis test instead
// of fitness-proportional reproduction: each child competes against a
// parent and replaces it if better, or with probability exp(-delta / T)
// if worse; T follows a geometric cooling schedule. This hybrid keeps the
// GA's recombination while inheriting SA's controllable uphill acceptance.
//
// GsaEngine is a Searcher (search/searcher.h): one step() is one
// generation. It builds its population and breeds with GA's operators
// (ga/operators.h).
#pragma once

#include <cstdint>
#include <vector>

#include "search/searcher.h"

namespace sehc {

struct GsaParams {
  std::size_t population = 32;
  double crossover_prob = 0.8;
  double mutation_prob = 0.3;
  /// Geometric cooling factor applied once per generation.
  double cooling = 0.97;
  /// Initial acceptance probability used to calibrate T0 from the spread of
  /// the initial population.
  double initial_acceptance = 0.5;
  std::uint64_t seed = 1;
  bool record_trace = true;
};

struct GsaIterationStats {
  std::size_t generation = 0;
  double best_makespan = 0.0;
  double temperature = 0.0;
  double accept_rate = 0.0;  // fraction of children accepted this generation
  double elapsed_seconds = 0.0;
};

class GsaEngine final : public Searcher {
 public:
  GsaEngine(const Workload& workload, GsaParams params);

  /// One row per completed generation since init() (empty when
  /// record_trace is off).
  const std::vector<GsaIterationStats>& trace() const { return trace_; }

  std::string name() const override { return "GSA"; }

 private:
  void start() override;
  void advance() override;

  GsaParams params_;

  // Stepwise state (valid after init()).
  std::vector<SolutionString> pop_;
  std::vector<double> lengths_;
  // Offspring buffers, reused by every mating (see step()).
  SolutionString child_a_;
  SolutionString child_b_;
  double temperature_ = 0.0;
  std::vector<GsaIterationStats> trace_;
};

}  // namespace sehc
