#include "heuristics/gsa.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/stats.h"
#include "ga/operators.h"

namespace sehc {

GsaEngine::GsaEngine(const Workload& workload, GsaParams params)
    : Searcher(workload), params_(params) {
  SEHC_CHECK(params_.population >= 2, "GsaEngine: population must be >= 2");
  SEHC_CHECK(params_.cooling > 0.0 && params_.cooling < 1.0,
             "GsaEngine: cooling must be in (0,1)");
  SEHC_CHECK(params_.initial_acceptance > 0.0 &&
                 params_.initial_acceptance < 1.0,
             "GsaEngine: initial_acceptance must be in (0,1)");
}

void GsaEngine::start() {
  rng_ = Rng(params_.seed);
  const std::size_t best =
      random_population(eval_, params_.population, rng_, pop_, lengths_);
  keep_if_best(pop_[best], lengths_[best]);

  // Calibrate T0 so a typical population-spread delta is accepted with the
  // configured probability. The floor applies only to a population without
  // spread, so T0 scales with the unit of time.
  const double stddev = summarize(lengths_).stddev();
  const double typical_delta = stddev > 0.0 ? stddev : 1e-9;
  temperature_ = -typical_delta / std::log(params_.initial_acceptance);
  trace_.clear();
}

void GsaEngine::advance() {
  std::size_t accepted = 0;
  std::size_t offspring = 0;
  // One Metropolis-mediated mating per pair slot per generation.
  for (std::size_t slot = 0; slot + 1 < pop_.size(); slot += 2) {
    const std::size_t ia = rng_.index(pop_.size());
    const std::size_t ib = rng_.index(pop_.size());
    // Both lengths are taken before either Metropolis test can overwrite a
    // population slot.
    const auto [len_a, len_b] =
        breed(eval_, pop_, lengths_, ia, ib, params_.crossover_prob,
              params_.mutation_prob, rng_, child_a_, child_b_);

    // Metropolis survivor test: child vs the parent in its slot. An
    // accepted child is swapped in, and the child buffer takes the old
    // parent's storage for the next mating.
    auto metropolis = [&](SolutionString& child, double child_len,
                          std::size_t parent_idx) {
      ++offspring;
      const double delta = child_len - lengths_[parent_idx];
      const bool accept =
          delta <= 0.0 ||
          (temperature_ > 0.0 &&
           rng_.uniform() < std::exp(-delta / temperature_));
      if (!accept) return;
      ++accepted;
      std::swap(pop_[parent_idx], child);
      lengths_[parent_idx] = child_len;
      keep_if_best(pop_[parent_idx], child_len);
    };
    metropolis(child_a_, len_a, ia);
    metropolis(child_b_, len_b, ib);
  }

  temperature_ *= params_.cooling;

  if (params_.record_trace) {
    GsaIterationStats stats;
    stats.generation = steps_done();
    stats.best_makespan = best_makespan();
    stats.temperature = temperature_;
    stats.accept_rate =
        offspring == 0 ? 0.0
                       : static_cast<double>(accepted) /
                             static_cast<double>(offspring);
    stats.elapsed_seconds = elapsed_seconds();
    trace_.push_back(stats);
  }
}

}  // namespace sehc
