#include "heuristics/level_mappers.h"

#include <gtest/gtest.h>

#include "heuristics/heft.h"
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
      EXPECT_TRUE(validate_schedule(w, s).empty()) << "seed " << seed;
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
  EXPECT_TRUE(validate_schedule(w, one).empty());
  EXPECT_TRUE(validate_schedule(w, many).empty());
  EXPECT_LE(many.makespan, one.makespan);
}

/// The chain 0 -> 2 -> 1 on 2 machines, with E = 5, 0, 0 and free
/// transfers: task ids that are not topological, and a zero-cost task whose
/// upward rank ties its successor's.
Workload zero_cost_chain() {
  TaskGraph g(3);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  Matrix<double> exec(2, 3, 0.0);
  exec(0, 0) = exec(1, 0) = 5.0;
  return Workload(std::move(g), MachineSet(2), std::move(exec),
                  Matrix<double>(1, 2, 0.0));
}

/// Two independent tasks on one machine, E = 5 and 0: a schedule that runs
/// the zero-length task 1 at 0, then task 0 at 0, has them start together.
Workload zero_length_pair() {
  Matrix<double> exec(1, 2, 0.0);
  exec(0, 0) = 5.0;
  return Workload(TaskGraph(2), MachineSet(1), std::move(exec),
                  Matrix<double>(0, 0, 0.0));
}

TEST(SchedulerRegistry, AllSchedulersProduceValidSchedules) {
  WorkloadParams p;
  p.tasks = 25;
  p.machines = 5;
  p.seed = 6;
  std::vector<std::string> names = scheduler_names();
  EXPECT_GE(names.size(), 10u);
  // SE from HEFT's schedule, whose string must put the zero-cost task 2
  // before its successor 1 although both start at 5.
  names.push_back("SE[init=HEFT]");
  for (const Workload& w :
       {make_workload(p), zero_cost_chain(), zero_length_pair()}) {
    for (const std::string& name : names) {
      // An iteration budget of 15, scaled per scheduler as in campaigns.
      const Budget budget =
          Budget::steps(15 * find_scheduler(name)->steps_per_iteration);
      const auto engine = make_search_engine(name, w, budget, /*seed=*/1);
      const Schedule s = run_search(*engine, budget).schedule;
      EXPECT_TRUE(validate_schedule(w, s).empty())
          << name << " on " << w.num_tasks() << " tasks";
      EXPECT_FALSE(engine->name().empty());
    }
  }
}

TEST(ScheduleToSolution, StartTimeTiesFollowTheTopologicalOrder) {
  const Workload w = zero_cost_chain();
  const Schedule s = heft_schedule(w);
  ASSERT_EQ(s.start[1], s.start[2]);
  EXPECT_TRUE(s.to_solution(w).is_valid(w.graph()));
  // By task id, successor 1 would come before its predecessor 2.
  EXPECT_FALSE(s.to_solution().is_valid(w.graph()));
}

}  // namespace
}  // namespace sehc
