#include "search/one_shot.h"

#include <limits>
#include <utility>

#include "core/error.h"

namespace sehc {

OneShotEngine::OneShotEngine(std::string name, const Workload& workload,
                             ScheduleFn fn)
    : name_(std::move(name)), workload_(&workload), fn_(fn) {
  SEHC_CHECK(fn_ != nullptr, "OneShotEngine: null schedule function");
}

void OneShotEngine::init() {
  timer_.reset();
  scheduled_ = false;
  schedule_ = Schedule{};
  initialized_ = true;
}

StepStats OneShotEngine::step() {
  SEHC_CHECK(initialized_, "OneShotEngine: init() not called");
  SEHC_CHECK(!scheduled_, "OneShotEngine: already done (single-step engine)");
  schedule_ = fn_(*workload_);
  scheduled_ = true;

  StepStats out;
  out.step = 0;
  out.best_makespan = schedule_.makespan;
  out.evals_used = 0;
  out.elapsed_seconds = timer_.seconds();
  return out;
}

bool OneShotEngine::done() const {
  SEHC_CHECK(initialized_, "OneShotEngine: init() not called");
  return scheduled_;
}

double OneShotEngine::best_makespan() const {
  // "No solution known yet" before the single step, matching the anytime
  // layer's convention for coordinates before the first improvement.
  return scheduled_ ? schedule_.makespan
                    : std::numeric_limits<double>::infinity();
}

std::size_t OneShotEngine::steps_done() const { return scheduled_ ? 1 : 0; }

Schedule OneShotEngine::best_schedule() const {
  SEHC_CHECK(scheduled_, "OneShotEngine: no schedule before the first step()");
  return schedule_;
}

}  // namespace sehc
