// Degenerate single-step SearchEngine adapter for one-shot schedulers
// (HEFT, CPOP, DLS, the level mappers): init() arms the engine, the single
// step() produces the complete schedule, and the engine reports done. This
// slots the deterministic baselines into every engine-driven harness — the
// generic run_search/run_anytime drivers, campaign cells under any budget,
// the daemon — as flat anytime baselines: budgets are enforced between
// steps, so any positive budget admits the one step; the curve is a single
// point at the schedule's makespan; and evals_used() stays 0 (list
// scheduling consumes no evaluator trials). make_search_engine builds one
// from a scheduler registry row (heuristics/scheduler.h).
#pragma once

#include <string>

#include "core/timer.h"
#include "hc/workload.h"
#include "sched/schedule.h"
#include "search/engine.h"

namespace sehc {

class OneShotEngine final : public SearchEngine {
 public:
  using ScheduleFn = Schedule (*)(const Workload&);

  /// `name` is the scheduler's registry identifier ("HEFT", "CPOP", ...);
  /// `fn` produces its complete schedule for a workload.
  OneShotEngine(std::string name, const Workload& workload, ScheduleFn fn);

  // --- SearchEngine interface ----------------------------------------------
  std::string name() const override { return name_; }
  void init() override;
  StepStats step() override;
  bool done() const override;
  double best_makespan() const override;
  std::size_t steps_done() const override;
  std::size_t evals_used() const override { return 0; }
  double elapsed_seconds() const override { return timer_.seconds(); }
  Schedule best_schedule() const override;

 private:
  std::string name_;
  const Workload* workload_;
  ScheduleFn fn_;

  // Stepwise state (valid after init()).
  bool initialized_ = false;
  bool scheduled_ = false;
  WallTimer timer_;
  Schedule schedule_;
};

}  // namespace sehc
