#include "sched/bounds.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "sched/evaluator.h"
#include "workload/generator.h"

namespace sehc {
namespace {

TEST(Bounds, Figure1HandComputed) {
  const Workload w = figure1_workload();
  // Best exec per task: 400, 550, 450, 700, 900, 300, 200.
  // Critical path (zero comm): longest of
  //   s0->s2->s5->s6 = 400+450+300+200 = 1350
  //   s0->s4 = 1300, s1->s4 = 1450, s0->s3 = 1100.
  EXPECT_DOUBLE_EQ(critical_path_lower_bound(w), 1450.0);
  // Work bound: (400+550+450+700+900+300+200)/2 = 3500/2.
  EXPECT_DOUBLE_EQ(work_lower_bound(w), 1750.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(w), 1750.0);
  // Serial: m0 total 3700, m1 total 3800 -> 3700.
  EXPECT_DOUBLE_EQ(serial_upper_bound(w), 3700.0);
}

TEST(Bounds, LowerBoundNeverExceedsAnyScheduleLength) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    const double lb = makespan_lower_bound(w);
    Rng rng(seed);
    for (int i = 0; i < 5; ++i) {
      const SolutionString s =
          random_initial_solution(w.graph(), w.num_machines(), rng);
      EXPECT_LE(lb, Evaluator(w).makespan(s) + 1e-9) << "seed " << seed;
    }
  }
}

TEST(Bounds, SerialUpperBoundIsAchievable) {
  // Scheduling everything on the best single machine achieves exactly the
  // serial upper bound (communication disappears on one machine).
  const Workload w = figure1_workload();
  const std::vector<TaskId> order{0, 1, 2, 3, 4, 5, 6};
  const std::vector<MachineId> all_m0(7, 0);  // m0 is the best total machine
  EXPECT_DOUBLE_EQ(Evaluator(w).makespan(SolutionString(order, all_m0)),
                   serial_upper_bound(w));
}

TEST(Bounds, OrderingInvariants) {
  WorkloadParams p;
  p.tasks = 60;
  p.machines = 8;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    EXPECT_LE(critical_path_lower_bound(w), serial_upper_bound(w));
    EXPECT_LE(work_lower_bound(w), serial_upper_bound(w));
    EXPECT_GE(makespan_lower_bound(w), critical_path_lower_bound(w));
    EXPECT_GE(makespan_lower_bound(w), work_lower_bound(w));
  }
}

}  // namespace
}  // namespace sehc
