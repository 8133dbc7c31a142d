#include "heuristics/random_search.h"

#include <utility>

namespace sehc {

RandomSearchEngine::RandomSearchEngine(const Workload& workload,
                                       std::size_t evaluations,
                                       std::uint64_t seed)
    : workload_(&workload),
      evaluations_(evaluations),
      seed_(seed),
      eval_(workload) {
  SEHC_CHECK(evaluations_ > 0, "random_search: need at least one evaluation");
}

void RandomSearchEngine::init() {
  rng_ = Rng(seed_);
  eval_.reset_trial_state();
  timer_.reset();
  best_ = SolutionString();
  best_len_ = std::numeric_limits<double>::infinity();
  iteration_ = 0;
  initialized_ = true;
}

bool RandomSearchEngine::done() const {
  SEHC_CHECK(initialized_, "RandomSearchEngine: init() not called");
  return iteration_ >= evaluations_;
}

StepStats RandomSearchEngine::step() {
  SEHC_CHECK(initialized_, "RandomSearchEngine: init() not called");
  const Workload& w = *workload_;
  random_initial_solution(w.graph(), w.topo_order(), w.num_machines(), rng_,
                          candidate_);
  const double len = eval_.makespan(candidate_);
  if (len < best_len_) {
    best_len_ = len;
    std::swap(best_, candidate_);  // the old best's storage takes the next draw
  }

  ++iteration_;
  StepStats out;
  out.step = iteration_ - 1;
  out.current_makespan = len;
  out.best_makespan = best_len_;
  out.evals_used = eval_.trial_count();
  out.elapsed_seconds = timer_.seconds();
  return out;
}

Schedule RandomSearchEngine::best_schedule() const {
  SEHC_CHECK(initialized_, "RandomSearchEngine: init() not called");
  SEHC_CHECK(iteration_ > 0,
             "RandomSearchEngine: no samples drawn yet (best is undefined)");
  return Schedule::from_solution(*workload_, best_);
}

Schedule random_search_schedule(const Workload& w, std::size_t evaluations,
                                std::uint64_t seed) {
  RandomSearchEngine engine(w, evaluations, seed);
  engine.init();
  while (!engine.done()) engine.step();
  return engine.best_schedule();
}

}  // namespace sehc
