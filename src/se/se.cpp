#include "se/se.h"

#include <cmath>

#include "dag/levels.h"
#include "obs/metrics.h"
#include "se/allocation.h"
#include "se/goodness.h"
#include "se/selection.h"

namespace sehc {

SeEngine::SeEngine(const Workload& workload, SeParams params)
    : Searcher(workload),
      params_(params),
      bias_(std::isnan(params.bias) ? default_bias(workload.num_tasks())
                                    : params.bias),
      optimal_(optimal_costs(workload)),
      levels_(task_levels(workload.graph())),
      candidates_(MachineCandidates(workload, params.y_limit)),
      batch_(eval_),
      selected_counter_("engine/" + params.name + "/selected"),
      moved_counter_("engine/" + params.name + "/moved") {}

SeEngine::SeEngine(const Workload& workload, SeParams params,
                   SolutionString initial)
    : SeEngine(workload, params) {
  SEHC_CHECK(initial.is_valid(workload.graph()),
             "SeEngine: initial solution is not a valid topological string");
  initial_ = std::move(initial);
}

void SeEngine::start() {
  // The random initial solution is drawn from Rng(seed) and the selection
  // stream from its own sub-seed, so a search from a given solution is the
  // same as a random start that drew that solution.
  if (initial_) {
    current_ = *initial_;
  } else {
    Rng rng(params_.seed);
    current_ = random_initial_solution(workload().graph(),
                                       workload().num_machines(), rng);
  }
  rng_ = Rng(params_.seed).split(0xA110C);
  keep_if_best(current_, eval_.makespan(current_));
  trace_.clear();
}

void SeEngine::advance() {
  // Evaluation: goodness of every individual in the current solution.
  eval_.evaluate_into(current_, times_);
  goodness_into(optimal_, times_, good_);

  // Selection: biased, level-ordered.
  select_tasks_into(good_, bias_, levels_, rng_, selected_);

  // Allocation: constructive best-fit re-placement of selected tasks
  // (ties among best placements broken randomly -> plateau mobility).
  const AllocationStats alloc = allocate_tasks(
      workload(), eval_, candidates_, selected_, current_, rng_, batch_);

  if (params_.verify_invariants) {
    SEHC_ASSERT_MSG(current_.is_valid(workload().graph()),
                    "SE iteration produced an invalid string");
  }

  const double current_makespan = eval_.makespan(current_);
  keep_if_best(current_, current_makespan);

  if (MetricsRegistry* metrics = ambient_metrics()) {
    metrics->counter_add(selected_counter_, selected_.size());
    metrics->counter_add(moved_counter_, alloc.tasks_moved);
  }

  if (params_.record_trace) {
    SeIterationStats stats;
    stats.iteration = steps_done();
    stats.num_selected = selected_.size();
    stats.tasks_moved = alloc.tasks_moved;
    stats.current_makespan = current_makespan;
    stats.best_makespan = best_makespan();
    stats.elapsed_seconds = elapsed_seconds();
    trace_.push_back(stats);
  }
}

}  // namespace sehc
