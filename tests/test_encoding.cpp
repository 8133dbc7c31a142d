#include "sched/encoding.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "dag/topo.h"
#include "workload/generator.h"
#include "workload/random_dag.h"

namespace sehc {
namespace {

/// The paper's Figure 2 string for the Figure 1 fixture:
/// s0m0 s1m1 s2m1 s5m1 s6m1 s3m0 s4m0.
SolutionString figure2_string() {
  const std::vector<TaskId> order{0, 1, 2, 5, 6, 3, 4};
  const std::vector<MachineId> assignment{0, 1, 1, 0, 0, 1, 1};
  return SolutionString(order, assignment);
}

TEST(Encoding, ConstructionAndAccessors) {
  const SolutionString s = figure2_string();
  EXPECT_EQ(s.size(), 7u);
  EXPECT_EQ(s.position_of(5), 3u);
  EXPECT_EQ(s.machine_of(5), 1u);
  EXPECT_EQ(s.segment(0).task, 0u);
  EXPECT_EQ(s.segment(6).task, 4u);
}

TEST(Encoding, Figure2StringIsValidForFigure1Dag) {
  const Workload w = figure1_workload();
  EXPECT_TRUE(figure2_string().is_valid(w.graph()));
}

TEST(Encoding, OrderAndAssignmentRoundTrip) {
  const SolutionString s = figure2_string();
  const SolutionString copy(s.order(), s.assignment());
  EXPECT_EQ(s, copy);
}

TEST(Encoding, RejectsDuplicateTasks) {
  const std::vector<TaskId> order{0, 0, 1};
  const std::vector<MachineId> asg{0, 0, 0};
  EXPECT_THROW(SolutionString(order, asg), Error);
}

TEST(Encoding, RejectsSizeMismatch) {
  const std::vector<TaskId> order{0, 1};
  const std::vector<MachineId> asg{0};
  EXPECT_THROW(SolutionString(order, asg), Error);
}

TEST(Encoding, SetMachine) {
  SolutionString s = figure2_string();
  s.set_machine(4, 1);
  EXPECT_EQ(s.machine_of(4), 1u);
  EXPECT_EQ(s.segment(6).machine, 1u);
}

TEST(Encoding, MoveTaskForward) {
  SolutionString s = figure2_string();
  s.move_task(1, 4);  // s1 from position 1 to position 4
  EXPECT_EQ(s.position_of(1), 4u);
  // Tasks in between shift left.
  EXPECT_EQ(s.segment(1).task, 2u);
  EXPECT_EQ(s.segment(2).task, 5u);
  EXPECT_EQ(s.segment(3).task, 6u);
  // Positions index stays consistent.
  for (std::size_t p = 0; p < s.size(); ++p)
    EXPECT_EQ(s.position_of(s.segment(p).task), p);
}

TEST(Encoding, MoveTaskBackward) {
  SolutionString s = figure2_string();
  s.move_task(6, 1);
  EXPECT_EQ(s.position_of(6), 1u);
  EXPECT_EQ(s.segment(2).task, 1u);
  for (std::size_t p = 0; p < s.size(); ++p)
    EXPECT_EQ(s.position_of(s.segment(p).task), p);
}

TEST(Encoding, MoveTaskRoundTripRestoresString) {
  const SolutionString original = figure2_string();
  SolutionString s = original;
  s.move_task(2, 5);
  s.move_task(2, 2);
  EXPECT_EQ(s, original);
}

TEST(Encoding, MoveToSamePositionIsNoop) {
  const SolutionString original = figure2_string();
  SolutionString s = original;
  s.move_task(3, s.position_of(3));
  EXPECT_EQ(s, original);
}

TEST(Encoding, ValidRangeOfTaskWithoutConstraintsIsWholeString) {
  // Task 1 (s1) has no predecessors; only successor is s4 at position 6.
  const Workload w = figure1_workload();
  const SolutionString s = figure2_string();
  const ValidRange r = s.valid_range(w.graph(), 1);
  EXPECT_EQ(r.lo, 0u);
  EXPECT_EQ(r.hi, 5u);  // must stay before s4 (position 6 after removal: 5)
}

TEST(Encoding, ValidRangeBoundedByPredecessorAndSuccessor) {
  // s5: pred s2 at position 2, succ s6 at position 4. After removing s5,
  // s2 stays at 2, s6 shifts to 3 -> final positions {3}.
  const Workload w = figure1_workload();
  const SolutionString s = figure2_string();
  const ValidRange r = s.valid_range(w.graph(), 5);
  EXPECT_EQ(r.lo, 3u);
  EXPECT_EQ(r.hi, 3u);
}

TEST(Encoding, ValidRangeOfSinkExtendsToEnd) {
  // s4 at the last position: preds s0 (pos 0) and s1 (pos 1); no successors.
  const Workload w = figure1_workload();
  const SolutionString s = figure2_string();
  const ValidRange r = s.valid_range(w.graph(), 4);
  EXPECT_EQ(r.lo, 2u);
  EXPECT_EQ(r.hi, 6u);
}

TEST(Encoding, EveryMoveWithinValidRangeKeepsValidity) {
  const Workload w = figure1_workload();
  for (TaskId t = 0; t < 7; ++t) {
    const SolutionString base = figure2_string();
    const ValidRange r = base.valid_range(w.graph(), t);
    for (std::size_t pos = r.lo; pos <= r.hi; ++pos) {
      SolutionString s = base;
      s.move_task(t, pos);
      EXPECT_TRUE(s.is_valid(w.graph()))
          << "task " << t << " to position " << pos;
      EXPECT_EQ(s.position_of(t), pos);
    }
  }
}

TEST(Encoding, MovesJustOutsideValidRangeBreakValidity) {
  const Workload w = figure1_workload();
  const SolutionString base = figure2_string();
  // s5's only valid final position is 3; move to 2 places it before s2.
  {
    SolutionString s = base;
    s.move_task(5, 2);
    EXPECT_FALSE(s.is_valid(w.graph()));
  }
  {
    SolutionString s = base;
    s.move_task(5, 4);  // after s6
    EXPECT_FALSE(s.is_valid(w.graph()));
  }
}

TEST(Encoding, RandomInitialSolutionIsValid) {
  WorkloadParams p;
  p.tasks = 50;
  p.machines = 6;
  p.seed = 21;
  const Workload w = make_workload(p);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    EXPECT_TRUE(s.is_valid(w.graph())) << "seed " << seed;
  }
}

TEST(Encoding, RandomInitialSolutionUsesAllMachinesEventually) {
  WorkloadParams p;
  p.tasks = 60;
  p.machines = 4;
  p.seed = 22;
  const Workload w = make_workload(p);
  Rng rng(5);
  const SolutionString s =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  std::vector<bool> used(4, false);
  for (const Segment& seg : s.segments()) used[seg.machine] = true;
  for (bool u : used) EXPECT_TRUE(u);
}

TEST(Encoding, IsValidRejectsWrongGraphSize) {
  const SolutionString s = figure2_string();
  EXPECT_FALSE(s.is_valid(TaskGraph(3)));
}

}  // namespace
}  // namespace sehc
