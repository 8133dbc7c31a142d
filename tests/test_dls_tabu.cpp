#include <gtest/gtest.h>

#include "heuristics/dls.h"
#include "heuristics/list_schedule.h"
#include "heuristics/random_search.h"
#include "heuristics/tabu.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

TEST(Dls, StaticLevelsAreMeanExecUpwardRanks) {
  const Workload w = figure1_workload();
  const auto sl = upward_ranks(w, /*with_transfers=*/false);
  // Mean exec: s6 = 225, s5 = 325, s2 = 475, s0 = 450, s4 = 950, s1 = 575,
  // s3 = 750. SL(s6)=225; SL(s5)=325+225=550; SL(s2)=475+550=1025;
  // SL(s4)=950; SL(s3)=750; SL(s0)=450+max(1025,750,950)=1475;
  // SL(s1)=575+950=1525.
  EXPECT_DOUBLE_EQ(sl[6], 225.0);
  EXPECT_DOUBLE_EQ(sl[5], 550.0);
  EXPECT_DOUBLE_EQ(sl[2], 1025.0);
  EXPECT_DOUBLE_EQ(sl[4], 950.0);
  EXPECT_DOUBLE_EQ(sl[3], 750.0);
  EXPECT_DOUBLE_EQ(sl[0], 1475.0);
  EXPECT_DOUBLE_EQ(sl[1], 1525.0);
}

TEST(Dls, ValidAndBoundedOnGeneratedWorkloads) {
  WorkloadParams p;
  p.tasks = 50;
  p.machines = 6;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    const Schedule s = dls_schedule(w);
    EXPECT_TRUE(validate_schedule(w, s).empty()) << "seed " << seed;
    EXPECT_GE(s.makespan, makespan_lower_bound(w) - 1e-9);
  }
}

TEST(Dls, DeterministicAcrossCalls) {
  WorkloadParams p;
  p.tasks = 30;
  p.machines = 4;
  p.seed = 2;
  const Workload w = make_workload(p);
  EXPECT_DOUBLE_EQ(dls_schedule(w).makespan, dls_schedule(w).makespan);
}

TEST(Dls, PrefersFasterMachineViaDelta) {
  // One task, two machines with equal availability: delta picks the faster.
  TaskGraph g(1);
  Matrix<double> exec(2, 1);
  exec(0, 0) = 10.0;
  exec(1, 0) = 4.0;
  Matrix<double> tr(1, 0);
  const Workload w(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
  const Schedule s = dls_schedule(w);
  EXPECT_EQ(s.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(s.makespan, 4.0);
}

TEST(Tabu, ProducesValidSchedule) {
  WorkloadParams p;
  p.tasks = 30;
  p.machines = 5;
  p.seed = 1;
  const Workload w = make_workload(p);
  TabuParams tp;
  tp.seed = 3;
  TabuEngine engine(w, tp);
  const SearchResult r = run_search(engine, Budget::steps(1500));
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty());
  EXPECT_DOUBLE_EQ(r.schedule.makespan, r.best_makespan);
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
}

TEST(Tabu, DeterministicPerSeed) {
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 4;
  p.seed = 2;
  const Workload w = make_workload(p);
  TabuParams tp;
  tp.seed = 5;
  TabuEngine a(w, tp);
  TabuEngine b(w, tp);
  EXPECT_DOUBLE_EQ(run_search(a, Budget::steps(800)).best_makespan,
                   run_search(b, Budget::steps(800)).best_makespan);
}

TEST(Tabu, BeatsRandomSearchOnEqualBudget) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  int tabu_wins = 0;
  const int trials = 5;
  for (int i = 0; i < trials; ++i) {
    p.seed = 200 + static_cast<std::uint64_t>(i);
    const Workload w = make_workload(p);
    TabuParams tp;
    tp.seed = 7;
    TabuEngine tabu(w, tp);
    RandomSearchEngine random(w, 7);
    const double tb = run_search(tabu, Budget::steps(2000)).best_makespan;
    const double rs = run_search(random, Budget::steps(2000)).best_makespan;
    tabu_wins += (tb <= rs);
  }
  EXPECT_GE(tabu_wins, trials - 1);
}

TEST(Tabu, ZeroSamplesThrows) {
  const Workload w = figure1_workload();
  TabuParams tp;
  tp.samples = 0;
  EXPECT_THROW(TabuEngine(w, tp), Error);
}

}  // namespace
}  // namespace sehc
