#include "heuristics/heft.h"

#include <gtest/gtest.h>

#include "heuristics/cpop.h"
#include "heuristics/list_schedule.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "topcuoglu_example.h"
#include "workload/generator.h"

namespace sehc {
namespace {

TEST(Heft, UpwardRanksMatchPublishedValues) {
  const Workload w = topcuoglu_example();
  const auto rank = upward_ranks(w, /*with_transfers=*/true);
  EXPECT_NEAR(rank[0], 108.000, 0.01);
  EXPECT_NEAR(rank[1], 77.000, 0.01);
  EXPECT_NEAR(rank[2], 80.000, 0.01);
  EXPECT_NEAR(rank[3], 80.000, 0.01);
  EXPECT_NEAR(rank[4], 69.000, 0.01);
  EXPECT_NEAR(rank[5], 63.333, 0.01);
  EXPECT_NEAR(rank[6], 42.667, 0.01);
  EXPECT_NEAR(rank[7], 35.667, 0.01);
  EXPECT_NEAR(rank[8], 44.333, 0.01);
  EXPECT_NEAR(rank[9], 14.667, 0.01);
}

TEST(Heft, ReproducesPublishedMakespan) {
  // The HEFT paper reports schedule length 80 for this instance.
  const Workload w = topcuoglu_example();
  const Schedule s = heft_schedule(w);
  EXPECT_TRUE(validate_schedule(w, s).empty());
  EXPECT_NEAR(s.makespan, 80.0, 1e-9);
}

TEST(Heft, DownwardRankOfEntryIsZero) {
  const Workload w = topcuoglu_example();
  const auto rank = heft_downward_ranks(w);
  EXPECT_DOUBLE_EQ(rank[0], 0.0);
  for (TaskId t = 1; t < 10; ++t) EXPECT_GT(rank[t], 0.0);
}

TEST(Heft, ValidOnGeneratedWorkloads) {
  WorkloadParams p;
  p.tasks = 60;
  p.machines = 8;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    const Schedule s = heft_schedule(w);
    EXPECT_TRUE(validate_schedule(w, s).empty()) << "seed " << seed;
    EXPECT_GE(s.makespan, makespan_lower_bound(w) - 1e-9);
  }
}

TEST(Heft, SingleMachineDegeneratesToSerialOrder) {
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 1;
  p.seed = 9;
  const Workload w = make_workload(p);
  const Schedule s = heft_schedule(w);
  EXPECT_TRUE(validate_schedule(w, s).empty());
  double total = 0.0;
  for (TaskId t = 0; t < w.num_tasks(); ++t) total += w.exec(0, t);
  EXPECT_NEAR(s.makespan, total, 1e-9);  // no comm, no gaps on one machine
}

TEST(ListScheduleTest, FillsGaps) {
  // Independent tasks of 5, 4, 12 and 3 units on one machine.
  Matrix<double> exec(1, 4);
  exec(0, 0) = 5.0;
  exec(0, 1) = 4.0;
  exec(0, 2) = 12.0;
  exec(0, 3) = 3.0;
  const Workload w(TaskGraph(4), MachineSet(1), std::move(exec),
                   Matrix<double>(0, 0));
  ListSchedule ls(w, /*insertion=*/true);
  ListSchedule appending(w, /*insertion=*/false);
  ls.place(0, 0, 10.0);  // [10, 15)
  appending.place(0, 0, 10.0);
  // A 4-unit task fits in the gap before the existing slot, unless the
  // schedule only appends.
  EXPECT_DOUBLE_EQ(ls.earliest_start(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(appending.earliest_start(1, 0), 15.0);
  // 0 + 12 > 10, so a 12-unit task must go after the slot.
  EXPECT_DOUBLE_EQ(ls.earliest_start(2, 0), 15.0);
  ls.place(1, 0, 2.0);  // [2, 6)
  // [0, 2) is too short for a 3-unit task; the gap [6, 10) accepts it.
  EXPECT_DOUBLE_EQ(ls.earliest_start(3, 0), 6.0);
}

TEST(ListScheduleTest, RespectsReadyTime) {
  // a -> b carries 3 units between machines; c keeps m0 busy over [0, 10).
  TaskGraph g(3);
  g.add_edge(0, 1);
  Matrix<double> exec(2, 3, 5.0);
  exec(1, 0) = 25.0;
  exec(0, 2) = 10.0;
  Matrix<double> tr(1, 1, 3.0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  ListSchedule ls(w, /*insertion=*/true);
  ls.place(2, 0, 0.0);
  ls.place(0, 1, 0.0);  // a finishes at 25 on m1
  EXPECT_DOUBLE_EQ(ls.earliest_start(1, 0), 28.0);
  EXPECT_DOUBLE_EQ(ls.earliest_start(1, 1), 25.0);
  const ListSchedule::Placement p = ls.earliest_finish(1);
  EXPECT_EQ(p.machine, 1u);  // finishes b at 30, m0 at 33
  EXPECT_DOUBLE_EQ(p.finish, 30.0);
}

TEST(Cpop, ValidAndBoundedOnCanonicalExample) {
  const Workload w = topcuoglu_example();
  const Schedule s = cpop_schedule(w);
  EXPECT_TRUE(validate_schedule(w, s).empty());
  // CPOP's published result for this instance is 86; allow exactness drift
  // from tie-breaking but require the right ballpark.
  EXPECT_GE(s.makespan, 80.0 - 1e-9);
  EXPECT_LE(s.makespan, 100.0);
}

TEST(Cpop, ValidOnGeneratedWorkloads) {
  WorkloadParams p;
  p.tasks = 50;
  p.machines = 6;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    const Schedule s = cpop_schedule(w);
    EXPECT_TRUE(validate_schedule(w, s).empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sehc
