#include "heuristics/level_mappers.h"

#include <gtest/gtest.h>

#include "heuristics/random_search.h"
#include "heuristics/scheduler.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

TEST(LevelMappers, AllValidOnGeneratedWorkloads) {
  WorkloadParams p;
  p.tasks = 50;
  p.machines = 6;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    for (auto* fn : {&minmin_schedule, &maxmin_schedule, &mct_schedule,
                     &olb_schedule}) {
      const Schedule s = fn(w);
      EXPECT_TRUE(is_valid_schedule(w, s)) << "seed " << seed;
      EXPECT_GE(s.makespan, makespan_lower_bound(w) - 1e-9);
    }
  }
}

TEST(LevelMappers, MinMinPicksGloballySmallestCompletion) {
  // Independent tasks (one level), 2 machines. Completion times:
  //   t0: m0=1, m1=10; t1: m0=2, m1=10.
  // Min-min commits t0@m0 first, then t1 sees m0 busy until 1: 1+2=3 < 10.
  TaskGraph g(2);
  Matrix<double> exec(2, 2);
  exec(0, 0) = 1.0; exec(0, 1) = 2.0;
  exec(1, 0) = 10.0; exec(1, 1) = 10.0;
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  const Schedule s = minmin_schedule(w);
  EXPECT_EQ(s.assignment[0], 0u);
  EXPECT_EQ(s.assignment[1], 0u);
  EXPECT_DOUBLE_EQ(s.makespan, 3.0);
}

TEST(LevelMappers, MaxMinCommitsBigTaskFirst) {
  // t0 small (1 on both), t1 big (8 on both). Max-min schedules t1 first on
  // m0, then t0 goes to the idle m1: makespan 8, not 9.
  TaskGraph g(2);
  Matrix<double> exec(2, 2);
  exec(0, 0) = 1.0; exec(0, 1) = 8.0;
  exec(1, 0) = 1.0; exec(1, 1) = 8.0;
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  const Schedule s = maxmin_schedule(w);
  EXPECT_DOUBLE_EQ(s.makespan, 8.0);
  EXPECT_NE(s.assignment[0], s.assignment[1]);
}

TEST(LevelMappers, OlbIgnoresExecutionTimes) {
  // OLB sends the task to the earliest-available machine even if slow.
  TaskGraph g(1);
  Matrix<double> exec(2, 1);
  exec(0, 0) = 100.0;  // m0 slow but available at 0
  exec(1, 0) = 1.0;
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  const Schedule s = olb_schedule(w);
  EXPECT_EQ(s.assignment[0], 0u);  // first among equally-available machines
  EXPECT_DOUBLE_EQ(s.makespan, 100.0);
}

TEST(LevelMappers, MctBeatsOlbWhenSpeedsMatter) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  p.heterogeneity = Level::kHigh;
  double mct_wins = 0, total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    mct_wins += mct_schedule(w).makespan <= olb_schedule(w).makespan;
    ++total;
  }
  EXPECT_GE(mct_wins / total, 0.8);  // MCT should essentially always win
}

TEST(RandomSearchTest, ValidAndImprovesWithBudget) {
  WorkloadParams p;
  p.tasks = 30;
  p.machines = 5;
  p.seed = 3;
  const Workload w = make_workload(p);
  RandomSearchEngine engine(w, 42);
  const Schedule one = run_search(engine, Budget::steps(1)).schedule;
  const Schedule many = run_search(engine, Budget::steps(200)).schedule;
  EXPECT_TRUE(is_valid_schedule(w, one));
  EXPECT_TRUE(is_valid_schedule(w, many));
  EXPECT_LE(many.makespan, one.makespan);
}

TEST(SchedulerRegistry, AllSchedulersProduceValidSchedules) {
  WorkloadParams p;
  p.tasks = 25;
  p.machines = 5;
  p.seed = 6;
  const Workload w = make_workload(p);
  const std::vector<std::string> names = scheduler_names();
  EXPECT_GE(names.size(), 10u);
  for (const std::string& name : names) {
    // An iteration budget of 15, scaled per scheduler as in campaigns.
    const Budget budget =
        Budget::steps(15 * find_scheduler(name)->steps_per_iteration);
    const auto engine = make_search_engine(name, w, budget, /*seed=*/1);
    const Schedule s = run_search(*engine, budget).schedule;
    EXPECT_TRUE(is_valid_schedule(w, s)) << name;
    EXPECT_FALSE(engine->name().empty());
  }
}

}  // namespace
}  // namespace sehc
