#include "se/goodness.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "workload/generator.h"

namespace sehc {
namespace {

SolutionString figure2_string() {
  const std::vector<TaskId> order{0, 1, 2, 5, 6, 3, 4};
  const std::vector<MachineId> assignment{0, 1, 1, 0, 0, 1, 1};
  return SolutionString(order, assignment);
}

// Hand-computed O_i for the Figure 1 fixture (best machines:
// s0->m0, s1->m1, s2->m1, s3->m0, s4->m1, s5->m0, s6->m0):
//   O0 = 400
//   O1 = 550
//   O2 = (400 + Tr01(d0)=100) + 450 = 950
//   O3 = 400 + 700 = 1100               (same machine, no comm)
//   O4 = max(400+150, 550+0) + 900 = 1450
//   O5 = (950 + Tr(d4)=80) + 300 = 1330
//   O6 = 1330 + 200 = 1530              (both on m0)
TEST(Goodness, OptimalCostsHandComputed) {
  const Workload w = figure1_workload();
  const auto o = optimal_costs(w);
  ASSERT_EQ(o.size(), 7u);
  EXPECT_DOUBLE_EQ(o[0], 400.0);
  EXPECT_DOUBLE_EQ(o[1], 550.0);
  EXPECT_DOUBLE_EQ(o[2], 950.0);
  EXPECT_DOUBLE_EQ(o[3], 1100.0);
  EXPECT_DOUBLE_EQ(o[4], 1450.0);
  EXPECT_DOUBLE_EQ(o[5], 1330.0);
  EXPECT_DOUBLE_EQ(o[6], 1530.0);
}

TEST(Goodness, PaperWorkedExampleStructure) {
  // The paper's O_4 example: s4 on its best machine (here m1) with both
  // predecessors on their best machines, including the communication
  // between s1 and s4 when their best machines differ. In our fixture s1's
  // best machine is also m1 so that particular term is zero, but the s0
  // term pays Tr(d2) = 150. The structural property tested: O_4 includes
  // predecessor communication, not just execution times.
  const Workload w = figure1_workload();
  const auto o = optimal_costs(w);
  const double without_comm = 550.0 + 900.0;  // max pred finish + exec
  EXPECT_DOUBLE_EQ(o[4], without_comm);       // s1 path dominates at 550
  EXPECT_GT(o[4], w.best_exec(4));            // includes predecessors at all
}

TEST(Goodness, GoodnessHandComputedForFigure2) {
  const Workload w = figure1_workload();
  const auto o = optimal_costs(w);
  const ScheduleTimes times = evaluate_schedule(w, figure2_string());
  std::vector<double> g;
  goodness_into(o, times, g);
  EXPECT_DOUBLE_EQ(g[0], 1.0);               // 400/400
  EXPECT_DOUBLE_EQ(g[1], 1.0);               // 550/550
  EXPECT_DOUBLE_EQ(g[2], 950.0 / 1000.0);
  EXPECT_DOUBLE_EQ(g[3], 1.0);               // 1100/1100
  EXPECT_DOUBLE_EQ(g[4], 1450.0 / 2100.0);
  EXPECT_DOUBLE_EQ(g[5], 1330.0 / 1350.0);
  EXPECT_DOUBLE_EQ(g[6], 1530.0 / 1600.0);
}

TEST(Goodness, AlwaysInUnitInterval) {
  WorkloadParams p;
  p.tasks = 50;
  p.machines = 8;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    p.seed = seed;
    const Workload w = make_workload(p);
    const auto o = optimal_costs(w);
    Rng rng(seed);
    const SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    std::vector<double> g;
    goodness_into(o, evaluate_schedule(w, s), g);
    for (double gi : g) {
      EXPECT_GE(gi, 0.0);
      EXPECT_LE(gi, 1.0);
    }
  }
}

TEST(Goodness, OptimalCostsAreStaticAcrossSolutions) {
  // O_i must not depend on any current solution (computed once, §4.3).
  const Workload w = figure1_workload();
  const auto o1 = optimal_costs(w);
  const auto o2 = optimal_costs(w);
  EXPECT_EQ(o1, o2);
}

TEST(Goodness, SizeMismatchThrows) {
  const Workload w = figure1_workload();
  const auto o = optimal_costs(w);
  ScheduleTimes times;
  times.finish.assign(3, 1.0);
  std::vector<double> g;
  EXPECT_THROW(goodness_into(o, times, g), Error);
}

TEST(Goodness, ZeroFinishGetsGoodnessOne) {
  std::vector<double> o{5.0};
  ScheduleTimes times;
  times.finish.assign(1, 0.0);
  std::vector<double> g;
  goodness_into(o, times, g);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
}

}  // namespace
}  // namespace sehc
