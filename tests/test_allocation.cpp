#include "se/allocation.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/rng.h"
#include "dag/levels.h"
#include "se/goodness.h"
#include "se/selection.h"
#include "workload/generator.h"
#include "workload/structured.h"

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

// --- allocate_tasks against a scan that simulates every combination --------

/// allocate_tasks without the sweep and without reuse: every (position,
/// machine) combination is a full Evaluator::makespan() of its string, in
/// allocate_tasks' order and with its reservoir draws.
AllocationStats full_scan_allocate(const Workload& w,
                                   const MachineCandidates& candidates,
                                   const std::vector<TaskId>& selected,
                                   SolutionString& s, Rng& rng,
                                   std::size_t& trials) {
  AllocationStats stats;
  Evaluator eval(w);
  for (const TaskId t : selected) {
    const std::size_t original_pos = s.position_of(t);
    const MachineId original_machine = s.machine_of(t);
    double best_len = std::numeric_limits<double>::infinity();
    std::size_t best_pos = original_pos;
    MachineId best_machine = original_machine;
    std::size_t ties = 0;
    const ValidRange range = s.valid_range(w.graph(), t);
    for (std::size_t pos = range.lo; pos <= range.hi; ++pos) {
      s.move_task(t, pos);
      for (const MachineId m : candidates.of(t)) {
        s.set_machine(t, m);
        const double len = eval.makespan(s);
        ++stats.combinations_tried;
        if (len < best_len) {
          best_len = len;
          best_pos = pos;
          best_machine = m;
          ties = 1;
        } else if (len == best_len) {
          ++ties;
          if (rng.below(ties) == 0) {
            best_pos = pos;
            best_machine = m;
          }
        }
      }
    }
    s.move_task(t, best_pos);
    s.set_machine(t, best_machine);
    if (best_pos != original_pos || best_machine != original_machine) {
      ++stats.tasks_moved;
    }
  }
  trials = eval.trial_count();
  return stats;
}

/// Runs allocate_tasks and the full scan from the same string and seed and
/// asserts identical strings, statistics, trial counts and RNG positions.
void expect_matches_full_scan(const Workload& w, std::size_t y,
                              const std::vector<TaskId>& selected,
                              const SolutionString& start,
                              std::uint64_t seed, const std::string& what) {
  const MachineCandidates candidates(w, y);
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  SolutionString got = start;
  SolutionString want = start;
  Rng rng_got(seed), rng_want(seed);
  const AllocationStats stats_got =
      allocate_tasks(w, eval, candidates, selected, got, rng_got, batch);
  std::size_t trials_want = 0;
  const AllocationStats stats_want =
      full_scan_allocate(w, candidates, selected, want, rng_want, trials_want);
  ASSERT_EQ(got, want) << what;
  EXPECT_EQ(stats_got.tasks_moved, stats_want.tasks_moved) << what;
  EXPECT_EQ(stats_got.combinations_tried, stats_want.combinations_tried)
      << what;
  EXPECT_EQ(eval.trial_count(), trials_want) << what;
  // Identical reservoir draws leave both streams at the same position.
  EXPECT_EQ(rng_got.bits(), rng_want.bits()) << what;
}

TEST(Allocation, MatchesScanThatSimulatesEveryCombination) {
  // Generated classes with Y below, at and above l (Y < l leaves some
  // positions without a slide lane), plus the degenerate shapes: k = 1-3,
  // l = 1, a chain (ranges of size 1), an edgeless graph (ranges spanning
  // the string) and trees and a fork-join, whose tasks' successors read the
  // scanned task on every lane.
  struct Shape {
    std::string name;
    Workload w;
  };
  std::vector<Shape> shapes;
  for (const Level conn : {Level::kLow, Level::kMedium, Level::kHigh}) {
    WorkloadParams p;
    p.tasks = 24;
    p.machines = 5;
    p.connectivity = conn;
    p.ccr = 1.0;
    p.seed = 60 + static_cast<std::uint64_t>(conn);
    shapes.push_back({p.describe(), make_workload(p)});
  }
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::size_t l = 1; l <= 3; ++l) {
      TaskGraph g(k);
      if (k == 3) g.add_edge(0, 2);
      shapes.push_back({"k" + std::to_string(k) + " l" + std::to_string(l),
                        make_workload_for_graph(std::move(g), l, Level::kHigh,
                                                1.0, 1000.0, 5 * k + l)});
    }
  }
  shapes.push_back({"chain", make_workload_for_graph(chain_dag(7), 3,
                                                     Level::kMedium, 1.0,
                                                     1000.0, 71)});
  shapes.push_back({"edgeless", make_workload_for_graph(TaskGraph(8), 3,
                                                        Level::kHigh, 1.0,
                                                        1000.0, 72)});
  shapes.push_back({"out_tree", make_workload_for_graph(out_tree_dag(3, 2), 4,
                                                        Level::kMedium, 5.0,
                                                        1000.0, 73)});
  shapes.push_back({"fork_join", make_workload_for_graph(fork_join_dag(3, 2),
                                                         3, Level::kLow, 1.0,
                                                         1000.0, 74)});

  for (const Shape& shape : shapes) {
    const Workload& w = shape.w;
    std::vector<TaskId> all(w.num_tasks());
    for (TaskId t = 0; t < w.num_tasks(); ++t) all[t] = t;
    for (const std::size_t y : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng init(seed * 31 + y);
        const SolutionString start =
            random_initial_solution(w.graph(), w.num_machines(), init);
        // Every task, then a random subset in random order (a task may
        // be scanned twice).
        std::vector<TaskId> some;
        for (std::size_t i = 0; i < w.num_tasks(); ++i) {
          some.push_back(static_cast<TaskId>(init.below(w.num_tasks())));
        }
        const std::string what =
            shape.name + " y=" + std::to_string(y) + " seed=" +
            std::to_string(seed);
        expect_matches_full_scan(w, y, all, start, seed + 100, what);
        expect_matches_full_scan(w, y, some, start, seed + 200,
                                 what + " subset");
      }
    }
  }
}

TEST(Allocation, ChunkedScanMatchesFullScan) {
  // Task 0 has no edge, so its valid range spans all 1,200 positions of a
  // chain on two machines. With Y = 1 its scan needs about 600 slide lanes,
  // far more than one sweep holds (see TrialBatchSlide).
  constexpr std::size_t k = 1200;
  TaskGraph g(k);
  for (TaskId t = 2; t < k; ++t) g.add_edge(t - 1, t);
  const Workload w =
      make_workload_for_graph(std::move(g), 2, Level::kHigh, 1.0, 1000.0, 78);
  Rng init(8);
  const SolutionString start =
      random_initial_solution(w.graph(), w.num_machines(), init);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_matches_full_scan(w, 1, {0}, start, seed, "chunked");
  }
}

}  // namespace
}  // namespace sehc
