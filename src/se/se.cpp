#include "se/se.h"

#include <cmath>

#include "dag/levels.h"
#include "se/allocation.h"
#include "se/goodness.h"
#include "se/selection.h"

namespace sehc {

SeEngine::SeEngine(const Workload& workload, SeParams params)
    : workload_(&workload),
      params_(params),
      bias_(std::isnan(params.bias) ? default_bias(workload.num_tasks())
                                    : params.bias),
      evaluator_(workload),
      optimal_(optimal_costs(workload)),
      levels_(task_levels(workload.graph())),
      candidates_(MachineCandidates(workload, params.y_limit)),
      batch_(evaluator_) {}

SeEngine::SeEngine(const Workload& workload, SeParams params,
                   SolutionString initial)
    : SeEngine(workload, params) {
  SEHC_CHECK(initial.is_valid(workload.graph()),
             "SeEngine: initial solution is not a valid topological string");
  initial_ = std::move(initial);
}

void SeEngine::init() {
  // The random initial solution is drawn from Rng(seed) and the selection
  // stream from its own sub-seed, so a search from a given solution is the
  // same as a random start that drew that solution.
  if (initial_) {
    current_ = *initial_;
  } else {
    Rng rng(params_.seed);
    current_ = random_initial_solution(workload_->graph(),
                                       workload_->num_machines(), rng);
  }
  rng_ = Rng(params_.seed).split(0xA110C);
  evaluator_.reset_trial_state();
  timer_.reset();
  best_solution_ = current_;
  best_makespan_ = evaluator_.makespan(current_);
  iteration_ = 0;
  trace_.clear();
  initialized_ = true;
}

StepStats SeEngine::step() {
  SEHC_CHECK(initialized_, "SeEngine: init() not called");

  // Evaluation: goodness of every individual in the current solution.
  evaluator_.evaluate_into(current_, times_);
  goodness_into(optimal_, times_, good_);

  // Selection: biased, level-ordered.
  select_tasks_into(good_, bias_, levels_, rng_, selected_);

  // Allocation: constructive best-fit re-placement of selected tasks
  // (ties among best placements broken randomly -> plateau mobility).
  const AllocationStats alloc = allocate_tasks(
      *workload_, evaluator_, candidates_, selected_, current_, rng_, batch_);

  if (params_.verify_invariants) {
    SEHC_ASSERT_MSG(current_.is_valid(workload_->graph()),
                    "SE iteration produced an invalid string");
  }

  const double current_makespan = evaluator_.makespan(current_);
  if (current_makespan < best_makespan_) {
    best_makespan_ = current_makespan;
    best_solution_ = current_;
  }

  SeIterationStats stats;
  stats.iteration = iteration_;
  stats.num_selected = selected_.size();
  stats.tasks_moved = alloc.tasks_moved;
  stats.current_makespan = current_makespan;
  stats.best_makespan = best_makespan_;
  stats.elapsed_seconds = timer_.seconds();
  if (params_.record_trace) trace_.push_back(stats);
  ++iteration_;

  StepStats out;
  out.step = iteration_ - 1;
  out.current_makespan = current_makespan;
  out.best_makespan = best_makespan_;
  out.evals_used = evaluator_.trial_count();
  out.elapsed_seconds = stats.elapsed_seconds;
  return out;
}

Schedule SeEngine::best_schedule() const {
  SEHC_CHECK(initialized_, "SeEngine: init() not called");
  return Schedule::from_solution(*workload_, best_solution_);
}

}  // namespace sehc
