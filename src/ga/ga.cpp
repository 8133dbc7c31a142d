#include "ga/ga.h"

#include <algorithm>
#include <numeric>

#include "ga/operators.h"

namespace sehc {

GaEngine::GaEngine(const Workload& workload, GaParams params)
    : Searcher(workload), params_(params) {
  SEHC_CHECK(params_.population >= 2, "GaEngine: population must be >= 2");
  SEHC_CHECK(params_.elite < params_.population,
             "GaEngine: elite must be < population");
  SEHC_CHECK(params_.crossover_prob >= 0.0 && params_.crossover_prob <= 1.0,
             "GaEngine: crossover_prob in [0,1]");
  SEHC_CHECK(params_.mutation_prob >= 0.0 && params_.mutation_prob <= 1.0,
             "GaEngine: mutation_prob in [0,1]");
}

namespace {

/// Roulette-wheel pick: probability proportional to (worst - len) + eps.
std::size_t roulette(const std::vector<double>& lengths, double worst,
                     Rng& rng) {
  // eps keeps even the worst chromosome selectable (Wang et al. require a
  // strictly positive fitness for every individual).
  const double eps = worst > 0.0 ? 1e-3 * worst : 1e-9;
  double total = 0.0;
  for (double len : lengths) total += (worst - len) + eps;
  double spin = rng.uniform() * total;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    spin -= (worst - lengths[i]) + eps;
    if (spin <= 0.0) return i;
  }
  return lengths.size() - 1;
}

}  // namespace

void GaEngine::start() {
  rng_ = Rng(params_.seed);
  const std::size_t best =
      random_population(eval_, params_.population, rng_, pop_, lengths_);
  keep_if_best(pop_[best], lengths_[best]);
  trace_.clear();
}

void GaEngine::advance() {
  // Rank indices by length for elitism.
  std::vector<std::size_t> rank(pop_.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::sort(rank.begin(), rank.end(), [&](std::size_t a, std::size_t b) {
    return lengths_[a] < lengths_[b];
  });
  const double worst = lengths_[rank.back()];

  // Elites keep their cached lengths, and child_makespan() lets a clone
  // keep its parent's. The parents stay in pop_ until the swap below, so
  // every child is measured against its parent before it is replaced.
  //
  // The next generation is built in next_, whose strings (the generation
  // before last) are overwritten in place, then swapped with pop_.
  const std::size_t n = pop_.size();
  next_.resize(n);
  next_lengths_.assign(n, 0.0);
  std::size_t filled = 0;
  for (std::size_t e = 0; e < params_.elite; ++e, ++filled) {
    next_[filled] = pop_[rank[e]];
    next_lengths_[filled] = lengths_[rank[e]];
  }

  while (filled < n) {
    const std::size_t ia = roulette(lengths_, worst, rng_);
    const std::size_t ib = roulette(lengths_, worst, rng_);
    // The last slot of an odd fill has room for one child; the other is
    // still built (its mutation draws are part of the stream) in spare_,
    // and never evaluated.
    const bool room_for_b = filled + 1 < n;
    const auto [len_a, len_b] = breed(
        eval_, pop_, lengths_, ia, ib, params_.crossover_prob,
        params_.mutation_prob, rng_, next_[filled],
        room_for_b ? next_[filled + 1] : spare_, room_for_b);
    next_lengths_[filled++] = len_a;
    if (room_for_b) next_lengths_[filled++] = len_b;
  }

  if (params_.verify_invariants) {
    for (const auto& chrom : next_) {
      SEHC_ASSERT_MSG(chrom.is_valid(workload().graph()),
                      "GA generation produced an invalid chromosome");
    }
  }

  pop_.swap(next_);
  lengths_.swap(next_lengths_);
  const auto best_it = std::min_element(lengths_.begin(), lengths_.end());
  keep_if_best(pop_[static_cast<std::size_t>(best_it - lengths_.begin())],
               *best_it);

  if (params_.record_trace) {
    GaIterationStats stats;
    stats.generation = steps_done();
    stats.best_makespan = best_makespan();
    stats.gen_best_makespan = *best_it;
    stats.gen_mean_makespan =
        std::accumulate(lengths_.begin(), lengths_.end(), 0.0) /
        static_cast<double>(lengths_.size());
    stats.elapsed_seconds = elapsed_seconds();
    trace_.push_back(stats);
  }
}

}  // namespace sehc
