#include "sched/evaluator.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/rng.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SolutionString figure2_string() {
  const std::vector<TaskId> order{0, 1, 2, 5, 6, 3, 4};
  const std::vector<MachineId> assignment{0, 1, 1, 0, 0, 1, 1};
  return SolutionString(order, assignment);
}

// Hand-computed schedule for the Figure 1 fixture under the Figure 2 string
// (E and Tr values in workload/generator.cpp):
//   s0@m0: [0, 400]        s1@m1: [0, 550]
//   s2@m1: ready 400+100=500, avail 550 -> [550, 1000]
//   s5@m1: ready 1000 -> [1000, 1350]
//   s6@m1: ready 1350 -> [1350, 1600]
//   s3@m0: ready 400 -> [400, 1100]
//   s4@m0: ready max(400, 550+200)=750, avail 1100 -> [1100, 2100]
TEST(Evaluator, HandComputedFigure2Schedule) {
  const Workload w = figure1_workload();
  const ScheduleTimes t = evaluate_schedule(w, figure2_string());

  EXPECT_DOUBLE_EQ(t.start[0], 0.0);
  EXPECT_DOUBLE_EQ(t.finish[0], 400.0);
  EXPECT_DOUBLE_EQ(t.start[1], 0.0);
  EXPECT_DOUBLE_EQ(t.finish[1], 550.0);
  EXPECT_DOUBLE_EQ(t.start[2], 550.0);
  EXPECT_DOUBLE_EQ(t.finish[2], 1000.0);
  EXPECT_DOUBLE_EQ(t.start[5], 1000.0);
  EXPECT_DOUBLE_EQ(t.finish[5], 1350.0);
  EXPECT_DOUBLE_EQ(t.start[6], 1350.0);
  EXPECT_DOUBLE_EQ(t.finish[6], 1600.0);
  EXPECT_DOUBLE_EQ(t.start[3], 400.0);
  EXPECT_DOUBLE_EQ(t.finish[3], 1100.0);
  EXPECT_DOUBLE_EQ(t.start[4], 1100.0);
  EXPECT_DOUBLE_EQ(t.finish[4], 2100.0);
  EXPECT_DOUBLE_EQ(t.makespan, 2100.0);
}

TEST(Evaluator, MakespanOnlyMatchesFullEvaluation) {
  const Workload w = figure1_workload();
  Evaluator eval(w);
  const SolutionString s = figure2_string();
  EXPECT_DOUBLE_EQ(eval.makespan(s), eval.evaluate(s).makespan);
}

TEST(Evaluator, CommunicationVanishesOnSameMachine) {
  const Workload w = figure1_workload();
  // Everything on m0, topological order 0..6.
  const std::vector<TaskId> order{0, 1, 2, 3, 4, 5, 6};
  const std::vector<MachineId> all_m0(7, 0);
  const ScheduleTimes t = evaluate_schedule(w, SolutionString(order, all_m0));
  // Pure serial sum of m0 times: 400+600+500+700+1000+300+200 = 3700.
  EXPECT_DOUBLE_EQ(t.makespan, 3700.0);
  // No idle gaps: each start equals previous finish.
  EXPECT_DOUBLE_EQ(t.start[1], 400.0);
  EXPECT_DOUBLE_EQ(t.start[6], 3500.0);
}

TEST(Evaluator, MachineOrderFollowsStringOrder) {
  const Workload w = figure1_workload();
  // Put independent s0 and s1 on the same machine in both orders; the
  // second in string order must wait.
  const std::vector<MachineId> both_m0{0, 0, 1, 1, 1, 1, 1};
  const ScheduleTimes a = evaluate_schedule(
      w, SolutionString(std::vector<TaskId>{0, 1, 2, 3, 4, 5, 6}, both_m0));
  EXPECT_DOUBLE_EQ(a.start[1], 400.0);  // s1 waits for s0
  const ScheduleTimes b = evaluate_schedule(
      w, SolutionString(std::vector<TaskId>{1, 0, 2, 3, 4, 5, 6}, both_m0));
  EXPECT_DOUBLE_EQ(b.start[0], 600.0);  // s0 waits for s1
}

TEST(Evaluator, NonInsertionSemanticsLeaveGaps) {
  // A machine waiting on communication does not backfill later string tasks.
  TaskGraph g(3);
  g.add_edge(0, 1);  // d0
  Matrix<double> exec(2, 3);
  exec(0, 0) = 10.0; exec(0, 1) = 10.0; exec(0, 2) = 10.0;
  exec(1, 0) = 10.0; exec(1, 1) = 10.0; exec(1, 2) = 10.0;
  Matrix<double> tr(1, 1, 100.0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  // String: s0@m0, s1@m1 (waits until 110), s2@m1 (must queue after s1).
  const SolutionString s(std::vector<TaskId>{0, 1, 2},
                         std::vector<MachineId>{0, 1, 1});
  const ScheduleTimes t = evaluate_schedule(w, s);
  EXPECT_DOUBLE_EQ(t.start[1], 110.0);
  EXPECT_DOUBLE_EQ(t.start[2], 120.0);  // queued behind s1, not inserted at 0
}

TEST(Evaluator, StringSizeMismatchThrows) {
  const Workload w = figure1_workload();
  const SolutionString s(std::vector<TaskId>{0, 1},
                         std::vector<MachineId>{0, 0});
  EXPECT_THROW(evaluate_schedule(w, s), Error);
}

TEST(Evaluator, TrialModeMatchesFullEvaluation) {
  // Checkpointed suffix evaluation must agree exactly with the full
  // evaluation for every (task, position, machine) trial pattern the SE
  // allocation step generates.
  WorkloadParams p;
  p.tasks = 35;
  p.machines = 5;
  p.seed = 17;
  const Workload w = make_workload(p);
  Evaluator trial_eval(w);
  Evaluator ref_eval(w);
  Rng rng(5);
  SolutionString s = random_initial_solution(w.graph(), w.num_machines(), rng);

  for (int round = 0; round < 20; ++round) {
    const TaskId t = static_cast<TaskId>(rng.below(w.num_tasks()));
    const ValidRange range = s.valid_range(w.graph(), t);
    trial_eval.begin_trials(s, range.lo);
    for (std::size_t pos = range.lo; pos <= range.hi; ++pos) {
      s.move_task(t, pos);
      for (MachineId m = 0; m < w.num_machines(); ++m) {
        s.set_machine(t, m);
        ASSERT_DOUBLE_EQ(trial_eval.trial_makespan(s, kInf),
                         ref_eval.makespan(s))
            << "task " << t << " pos " << pos << " machine " << m;
      }
    }
  }
}

TEST(Evaluator, TrialModeWithZeroPrefixIsFullEvaluation) {
  const Workload w = figure1_workload();
  Evaluator eval(w);
  const SolutionString s = figure2_string();
  eval.begin_trials(s, 0);
  EXPECT_DOUBLE_EQ(eval.trial_makespan(s, kInf), 2100.0);
}

TEST(Evaluator, TrialModeWithFullPrefixReturnsMakespan) {
  const Workload w = figure1_workload();
  Evaluator eval(w);
  const SolutionString s = figure2_string();
  eval.begin_trials(s, s.size());
  EXPECT_DOUBLE_EQ(eval.trial_makespan(s, kInf), 2100.0);
}

TEST(Evaluator, BeginTrialsRejectsBadPrefix) {
  const Workload w = figure1_workload();
  Evaluator eval(w);
  const SolutionString s = figure2_string();
  EXPECT_THROW(eval.begin_trials(s, 8), Error);
}

TEST(Evaluator, ReuseAcrossCallsIsConsistent) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 5;
  p.seed = 8;
  const Workload w = make_workload(p);
  Evaluator eval(w);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    const double m1 = eval.makespan(s);
    const double m2 = Evaluator(w).makespan(s);  // fresh evaluator
    EXPECT_DOUBLE_EQ(m1, m2);
  }
}

TEST(Evaluator, AdjacentIndependentSwapKeepsTheSchedule) {
  // The list schedule depends only on the assignment and each machine's task
  // order. Swapping two adjacent segments that share no DAG edge and run on
  // different machines keeps both, so every start and finish time must
  // repeat bit for bit; SE's allocation scan reuses trial results on exactly
  // this ground. A swap on one machine reorders it, so some such swap must
  // move the schedule, or the comparison proves nothing. (== on these
  // non-negative finite times compares bits.)
  std::size_t independent_swaps = 0;
  std::size_t same_machine_changes = 0;
  for (Level conn : {Level::kLow, Level::kMedium, Level::kHigh}) {
    for (double ccr : {0.1, 1.0, 5.0}) {
      WorkloadParams p;
      p.tasks = 30;
      p.machines = 4;
      p.connectivity = conn;
      p.heterogeneity = conn == Level::kMedium ? Level::kHigh : Level::kLow;
      p.ccr = ccr;
      p.seed = 31;
      const Workload w = make_workload(p);
      const TaskGraph& g = w.graph();
      const Evaluator eval(w);
      Rng rng(77);
      for (int draw = 0; draw < 8; ++draw) {
        const SolutionString s =
            random_initial_solution(g, w.num_machines(), rng);
        ASSERT_TRUE(s.is_valid(g));
        const ScheduleTimes before = eval.evaluate(s);
        for (std::size_t i = 0; i + 1 < s.size(); ++i) {
          const Segment a = s.segment(i);
          const Segment b = s.segment(i + 1);
          if (g.has_edge(a.task, b.task)) continue;
          SolutionString swapped = s;
          swapped.move_task(a.task, i + 1);
          ASSERT_EQ(swapped.segment(i), b);
          ASSERT_TRUE(swapped.is_valid(g));
          const ScheduleTimes after = eval.evaluate(swapped);
          if (a.machine != b.machine) {
            ++independent_swaps;
            ASSERT_EQ(after.start, before.start) << p.describe() << " i=" << i;
            ASSERT_EQ(after.finish, before.finish)
                << p.describe() << " i=" << i;
            ASSERT_EQ(after.makespan, before.makespan);
          } else if (after.start != before.start) {
            ++same_machine_changes;
          }
        }
      }
    }
  }
  EXPECT_GT(independent_swaps, 0u);
  EXPECT_GT(same_machine_changes, 0u);
}

}  // namespace
}  // namespace sehc
