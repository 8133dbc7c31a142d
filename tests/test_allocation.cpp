#include "se/allocation.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "dag/levels.h"
#include "se/goodness.h"
#include "se/selection.h"
#include "workload/generator.h"

namespace sehc {
namespace {

SolutionString figure2_string() {
  const std::vector<TaskId> order{0, 1, 2, 5, 6, 3, 4};
  const std::vector<MachineId> assignment{0, 1, 1, 0, 0, 1, 1};
  return SolutionString(order, assignment);
}

TEST(MachineCandidates, YLimitTruncatesSortedList) {
  WorkloadParams p;
  p.tasks = 10;
  p.machines = 6;
  p.seed = 1;
  const Workload w = make_workload(p);
  const MachineCandidates full_table(w, 0);
  const MachineCandidates top2_table(w, 2);
  EXPECT_EQ(full_table.y(), 6u);
  EXPECT_EQ(top2_table.y(), 2u);
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    const std::span<const MachineId> full = full_table.of(t);
    const std::span<const MachineId> top2 = top2_table.of(t);
    EXPECT_EQ(full.size(), 6u);
    EXPECT_EQ(top2.size(), 2u);
    // Sorted ascending by execution time.
    for (std::size_t i = 1; i < full.size(); ++i) {
      EXPECT_LE(w.exec(full[i - 1], t), w.exec(full[i], t));
    }
    // Top-2 is a prefix of the full ordering.
    EXPECT_EQ(top2[0], full[0]);
    EXPECT_EQ(top2[1], full[1]);
  }
}

TEST(MachineCandidates, OversizedYMeansAllMachines) {
  const Workload w = figure1_workload();
  const MachineCandidates c(w, 99);
  EXPECT_EQ(c.y(), 2u);
  EXPECT_EQ(c.num_tasks(), w.num_tasks());
  for (TaskId t = 0; t < w.num_tasks(); ++t) EXPECT_EQ(c.of(t).size(), 2u);
}

TEST(Allocation, NeverWorsensTheSchedule) {
  WorkloadParams p;
  p.tasks = 30;
  p.machines = 5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    Evaluator eval(w);
    Evaluator::TrialBatch batch(eval);
    const MachineCandidates candidates(w, 0);
    Rng rng(seed);
    SolutionString s = random_initial_solution(w.graph(), w.num_machines(), rng);
    const double before = eval.makespan(s);
    std::vector<TaskId> all(w.num_tasks());
    for (TaskId t = 0; t < w.num_tasks(); ++t) all[t] = t;
    allocate_tasks(w, eval, candidates, all, s, rng, batch);
    EXPECT_LE(eval.makespan(s), before + 1e-9) << "seed " << seed;
    EXPECT_TRUE(s.is_valid(w.graph()));
  }
}

TEST(Allocation, ImprovesAnObviouslyBadSolution) {
  // Everything queued on the slower machine (m1 has the larger total);
  // allocation of all tasks must strictly improve this.
  const Workload w = figure1_workload();
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w, 0);
  const std::vector<TaskId> order{0, 1, 2, 3, 4, 5, 6};
  const std::vector<MachineId> all_m1(7, 1);
  SolutionString s(order, all_m1);
  const double before = eval.makespan(s);  // serial on m1 = 3800
  EXPECT_DOUBLE_EQ(before, 3800.0);
  Rng rng(1);
  std::vector<TaskId> all{0, 1, 2, 3, 4, 5, 6};
  allocate_tasks(w, eval, candidates, all, s, rng, batch);
  EXPECT_LT(eval.makespan(s), before);
  EXPECT_TRUE(s.is_valid(w.graph()));
}

TEST(Allocation, TieRandomizationPreservesMakespan) {
  // The Figure 2 string is a strict single-move local minimum (verified by
  // brute force: no single (position, machine) change of any one task
  // improves 2100). Allocation may wander across tied placements but must
  // never worsen the makespan.
  const Workload w = figure1_workload();
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w, 0);
  std::vector<TaskId> all{0, 1, 2, 3, 4, 5, 6};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SolutionString s = figure2_string();
    Rng rng(seed);
    allocate_tasks(w, eval, candidates, all, s, rng, batch);
    EXPECT_LE(eval.makespan(s), 2100.0 + 1e-9) << "seed " << seed;
    EXPECT_TRUE(s.is_valid(w.graph()));
  }
}

TEST(Allocation, RestoresStateWhenNothingBetterExists) {
  // A single-task workload: the only placement is the current one.
  TaskGraph g(1);
  Matrix<double> exec(1, 1, 5.0);
  Matrix<double> tr(0, 0);
  const Workload w(std::move(g), MachineSet(1), std::move(exec), std::move(tr));
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w, 0);
  SolutionString s(std::vector<TaskId>{0}, std::vector<MachineId>{0});
  const SolutionString before = s;
  Rng rng(1);
  const auto stats = allocate_tasks(w, eval, candidates, {0}, s, rng, batch);
  EXPECT_EQ(s, before);
  EXPECT_EQ(stats.tasks_moved, 0u);
}

TEST(Allocation, TieMovesNeverChangeMakespan) {
  // Two identical machines, one task: every placement ties. Whatever the
  // reservoir picks, the makespan must stay 5.
  TaskGraph g(1);
  Matrix<double> exec(2, 1, 5.0);
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w, 0);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SolutionString s(std::vector<TaskId>{0}, std::vector<MachineId>{1});
    Rng rng(seed);
    allocate_tasks(w, eval, candidates, {0}, s, rng, batch);
    EXPECT_DOUBLE_EQ(eval.makespan(s), 5.0);
  }
}

TEST(Allocation, CombinationCountMatchesRangeTimesY) {
  // For the single selected task s4 (valid final positions 2..6, i.e. 5
  // positions; Y = 2 machines) every combination is evaluated: 5 * 2.
  const Workload w = figure1_workload();
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w, 2);
  SolutionString s = figure2_string();
  Rng rng(1);
  const auto stats = allocate_tasks(w, eval, candidates, {4}, s, rng, batch);
  EXPECT_EQ(stats.combinations_tried, 5u * 2u);
}

TEST(Allocation, RestrictedYCanForceUphillRematch) {
  // One task on a machine outside its top-1 candidate set: allocation must
  // re-match it to the fastest machine even though nothing was "improved".
  TaskGraph g(1);
  Matrix<double> exec(2, 1);
  exec(0, 0) = 10.0;
  exec(1, 0) = 3.0;  // m1 is the best-matching machine
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w, 1);  // only m1 allowed
  SolutionString s(std::vector<TaskId>{0}, std::vector<MachineId>{0});
  Rng rng(1);
  allocate_tasks(w, eval, candidates, {0}, s, rng, batch);
  EXPECT_EQ(s.machine_of(0), 1u);
  EXPECT_DOUBLE_EQ(eval.makespan(s), 3.0);
}

TEST(Allocation, SmallerYNeverTriesMoreCombinations) {
  WorkloadParams p;
  p.tasks = 25;
  p.machines = 8;
  p.seed = 4;
  const Workload w = make_workload(p);
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  std::vector<TaskId> all(w.num_tasks());
  for (TaskId t = 0; t < w.num_tasks(); ++t) all[t] = t;

  Rng rng(9);
  const SolutionString base =
      random_initial_solution(w.graph(), w.num_machines(), rng);

  Rng rng2(1), rng8(1);
  SolutionString s2 = base;
  const auto stats2 =
      allocate_tasks(w, eval, MachineCandidates(w, 2), all, s2, rng2, batch);
  SolutionString s8 = base;
  const auto stats8 =
      allocate_tasks(w, eval, MachineCandidates(w, 8), all, s8, rng8, batch);
  EXPECT_LT(stats2.combinations_tried, stats8.combinations_tried);
}

}  // namespace
}  // namespace sehc
