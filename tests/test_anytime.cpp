#include "exp/anytime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/error.h"
#include "ga/ga.h"
#include "se/se.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Anytime, ValueAtEmptyCurveIsInfinity) {
  const std::vector<AnytimePoint> empty;
  EXPECT_EQ(value_at(empty, 0.0), kInf);
  EXPECT_EQ(value_at(empty, 100.0), kInf);
}

TEST(Anytime, ValueAtBeforeFirstPointIsInfinity) {
  const std::vector<AnytimePoint> curve{{1.0, 50.0}, {2.0, 40.0}};
  EXPECT_EQ(value_at(curve, 0.5), kInf);
  EXPECT_EQ(value_at(curve, 1.0), 50.0);
  EXPECT_EQ(value_at(curve, 1.5), 50.0);
  EXPECT_EQ(value_at(curve, 3.0), 40.0);
}

TEST(Anytime, TimeGridZeroPointsIsEmpty) {
  EXPECT_TRUE(time_grid(10.0, 0).empty());
  // points == 0 is defined regardless of the budget's value.
  EXPECT_TRUE(time_grid(-1.0, 0).empty());
}

TEST(Anytime, TimeGridRejectsBadBudgets) {
  EXPECT_THROW(time_grid(0.0, 5), Error);
  EXPECT_THROW(time_grid(-1.0, 5), Error);
  EXPECT_THROW(time_grid(kInf, 5), Error);
}

TEST(Anytime, TimeGridEndsExactlyAtTheBudget) {
  const auto grid = time_grid(2.0, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid[0], 0.5);
  EXPECT_DOUBLE_EQ(grid[3], 2.0);
}

TEST(Anytime, SampleCurveMatchesValueAt) {
  const std::vector<AnytimePoint> curve{{1.0, 50.0}, {3.0, 30.0}};
  const auto grid = time_grid(4.0, 4);
  const auto samples = sample_curve(curve, grid);
  ASSERT_EQ(samples.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(samples[i], value_at(curve, grid[i]));
  }
  EXPECT_EQ(samples[0], 50.0);   // t=1
  EXPECT_EQ(samples[3], 30.0);   // t=4
  EXPECT_TRUE(sample_curve(curve, {}).empty());
  EXPECT_EQ(sample_curve({}, grid)[0], kInf);
}

TEST(Anytime, CurveRecorderKeepsImprovementsOnly) {
  CurveRecorder recorder;
  recorder.record(1.0, 100.0);
  recorder.record(2.0, 100.0);  // no improvement -> dropped
  recorder.record(3.0, 90.0);
  recorder.record(4.0, 95.0);   // worse -> dropped
  recorder.finish(5.0, 90.0);   // terminal point always appended
  const auto& curve = recorder.curve();
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_EQ(curve[0].seconds, 1.0);
  EXPECT_EQ(curve[1].best, 90.0);
  EXPECT_EQ(curve[2].seconds, 5.0);
}

TEST(Anytime, StepCurvesAreDeterministic) {
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 4;
  p.seed = 5;
  const Workload w = make_workload(p);

  SeParams sp;
  sp.seed = 5;
  sp.bias = -0.1;
  sp.record_trace = false;
  SeEngine se_a(w, sp);
  SeEngine se_b(w, sp);
  const auto a = run_anytime(se_a, Budget::steps(12));
  const auto b = run_anytime(se_b, Budget::steps(12));
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seconds, b[i].seconds);
    EXPECT_EQ(a[i].best, b[i].best);
  }
  // The terminal point sits at the step budget with the final best, which
  // matches a plain run_search over the same budget bit for bit.
  EXPECT_DOUBLE_EQ(a.back().seconds, 12.0);
  SeEngine se_c(w, sp);
  EXPECT_EQ(a.back().best, run_search(se_c, Budget::steps(12)).best_makespan);

  GaParams gp;
  gp.seed = 5;
  gp.record_trace = false;
  GaEngine ga_engine(w, gp);
  const auto ga = run_anytime(ga_engine, Budget::steps(10));
  ASSERT_FALSE(ga.empty());
  EXPECT_DOUBLE_EQ(ga.back().seconds, 10.0);
  GaEngine ga_c(w, gp);
  EXPECT_EQ(ga.back().best, run_search(ga_c, Budget::steps(10)).best_makespan);
}

TEST(Anytime, EvalBudgetCurveEndsAtTheBudget) {
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 4;
  p.seed = 5;
  const Workload w = make_workload(p);

  SeParams sp;
  sp.seed = 5;
  sp.bias = -0.1;
  sp.record_trace = false;
  SeEngine engine(w, sp);
  const std::size_t budget = 2000;
  const auto curve = run_anytime(engine, Budget::evals(budget));
  ASSERT_FALSE(curve.empty());
  // SE steps cost many trials, so the final step overshoots: the terminal
  // x is clamped to the budget and the engine reports the true count.
  EXPECT_DOUBLE_EQ(curve.back().seconds, static_cast<double>(budget));
  EXPECT_GE(engine.evals_used(), budget);
  // Monotone non-increasing best along the curve.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].best, curve[i - 1].best);
    EXPECT_GE(curve[i].seconds, curve[i - 1].seconds);
  }
}

}  // namespace
}  // namespace sehc
