#include "heuristics/heft.h"

#include <gtest/gtest.h>

#include "heuristics/cpop.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// The canonical 10-task / 3-processor example from the HEFT paper
/// (Topcuoglu, Hariri, Wu). Task ids here are 0-based (paper's n1 == task 0).
/// All machine pairs share the same transfer time per edge, matching the
/// paper's uniform-link model.
Workload topcuoglu_example() {
  TaskGraph g(10);
  struct E { TaskId a, b; double c; };
  const std::vector<E> edges{
      {0, 1, 18}, {0, 2, 12}, {0, 3, 9},  {0, 4, 11}, {0, 5, 14},
      {1, 7, 19}, {1, 8, 16}, {2, 6, 23}, {3, 7, 27}, {3, 8, 23},
      {4, 8, 13}, {5, 7, 15}, {6, 9, 17}, {7, 9, 11}, {8, 9, 13}};
  std::vector<double> comm;
  for (const E& e : edges) {
    g.add_edge(e.a, e.b);
    comm.push_back(e.c);
  }

  const double exec_data[10][3] = {
      {14, 16, 9},  {13, 19, 18}, {11, 13, 19}, {13, 8, 17},  {12, 13, 10},
      {13, 16, 9},  {7, 15, 11},  {5, 11, 14},  {18, 12, 20}, {21, 7, 16}};
  Matrix<double> exec(3, 10);
  for (TaskId t = 0; t < 10; ++t)
    for (MachineId m = 0; m < 3; ++m) exec(m, t) = exec_data[t][m];

  Matrix<double> tr(3, comm.size());  // 3 machine pairs, uniform links
  for (std::size_t p = 0; p < 3; ++p)
    for (DataId d = 0; d < comm.size(); ++d) tr(p, d) = comm[d];

  return Workload(std::move(g), MachineSet(3), std::move(exec), std::move(tr));
}

TEST(Heft, UpwardRanksMatchPublishedValues) {
  const Workload w = topcuoglu_example();
  const auto rank = heft_upward_ranks(w);
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

TEST(InsertionTimelineTest, FillsGaps) {
  InsertionTimeline tl(1);
  tl.place(0, 10.0, 5.0);  // [10, 15)
  // A 4-unit task ready at 2 fits before the existing slot.
  EXPECT_DOUBLE_EQ(tl.earliest_start(0, 2.0, 4.0), 2.0);
  // A 12-unit task ready at 0 does not fit in [0,10) after... it does fit:
  // 0 + 12 > 10, so it must go after the slot.
  EXPECT_DOUBLE_EQ(tl.earliest_start(0, 0.0, 12.0), 15.0);
  tl.place(0, 2.0, 4.0);  // [2, 6)
  // Remaining gap [6, 10) accepts a 3-unit task.
  EXPECT_DOUBLE_EQ(tl.earliest_start(0, 0.0, 3.0), 6.0);
}

TEST(InsertionTimelineTest, RespectsReadyTime) {
  InsertionTimeline tl(1);
  tl.place(0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0, 25.0, 5.0), 25.0);
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
