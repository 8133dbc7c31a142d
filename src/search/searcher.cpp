#include "search/searcher.h"

namespace sehc {

void Searcher::init() {
  eval_.reset_trial_state();
  timer_.reset();
  steps_ = 0;
  best_ = SolutionString();
  best_len_ = std::numeric_limits<double>::infinity();
  started_ = true;
  start();
}

StepStats Searcher::step() {
  check_started();
  advance();
  ++steps_;
  return StepStats{.step = steps_ - 1,
                   .best_makespan = best_len_,
                   .evals_used = eval_.trial_count(),
                   .elapsed_seconds = timer_.seconds()};
}

Schedule Searcher::best_schedule() const {
  check_started();
  SEHC_CHECK(!best_.empty(), name() + ": no solution found yet");
  return Schedule::from_solution(workload(), best_);
}

}  // namespace sehc
