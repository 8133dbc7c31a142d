#include "heuristics/random_search.h"

namespace sehc {

RandomSearchEngine::RandomSearchEngine(const Workload& workload,
                                       std::uint64_t seed)
    : Searcher(workload), seed_(seed) {}

void RandomSearchEngine::start() { rng_ = Rng(seed_); }

void RandomSearchEngine::advance() {
  const Workload& w = workload();
  random_initial_solution(w.graph(), w.topo_order(), w.num_machines(), rng_,
                          candidate_);
  keep_if_best(candidate_, eval_.makespan(candidate_));
}

}  // namespace sehc
