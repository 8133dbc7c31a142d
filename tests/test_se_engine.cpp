#include "se/se.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/rng.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

SeParams quick_params(std::uint64_t seed) {
  SeParams p;
  p.seed = seed;
  p.verify_invariants = true;
  return p;
}

/// A finished SE run: the driver's result plus the engine's trace.
struct SeRun {
  SearchResult result;
  std::vector<SeIterationStats> trace;
};

SeRun run_se(const Workload& w, const SeParams& p,
             std::size_t iterations = 40) {
  SeEngine engine(w, p);
  SearchResult result = run_search(engine, Budget::steps(iterations));
  return {std::move(result), engine.trace()};
}

TEST(SeEngine, ProducesValidSchedule) {
  WorkloadParams wp;
  wp.tasks = 30;
  wp.machines = 4;
  wp.seed = 1;
  const Workload w = make_workload(wp);
  const SearchResult r = run_se(w, quick_params(1)).result;
  EXPECT_TRUE(is_valid_schedule(w, r.schedule));
  EXPECT_TRUE(r.schedule.to_solution().is_valid(w.graph()));
  EXPECT_DOUBLE_EQ(r.schedule.makespan, r.best_makespan);
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
}

TEST(SeEngine, DeterministicPerSeed) {
  WorkloadParams wp;
  wp.tasks = 25;
  wp.machines = 4;
  wp.seed = 2;
  const Workload w = make_workload(wp);
  const SeRun a = run_se(w, quick_params(7));
  const SeRun b = run_se(w, quick_params(7));
  EXPECT_DOUBLE_EQ(a.result.best_makespan, b.result.best_makespan);
  EXPECT_EQ(a.result.schedule.assignment, b.result.schedule.assignment);
  EXPECT_EQ(a.result.schedule.start, b.result.schedule.start);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].num_selected, b.trace[i].num_selected);
    EXPECT_DOUBLE_EQ(a.trace[i].current_makespan, b.trace[i].current_makespan);
  }
}

TEST(SeEngine, BestMakespanIsMonotone) {
  WorkloadParams wp;
  wp.tasks = 40;
  wp.machines = 6;
  wp.seed = 3;
  const Workload w = make_workload(wp);
  const SeRun r = run_se(w, quick_params(3), 60);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].best_makespan, r.trace[i - 1].best_makespan);
  }
  EXPECT_DOUBLE_EQ(r.trace.back().best_makespan, r.result.best_makespan);
}

TEST(SeEngine, ImprovesOverInitialSolution) {
  WorkloadParams wp;
  wp.tasks = 50;
  wp.machines = 8;
  wp.seed = 4;
  const Workload w = make_workload(wp);
  SeParams p = quick_params(4);
  Rng rng(p.seed);
  SolutionString initial =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  const double initial_len = schedule_makespan(w, initial);
  SeEngine engine(w, p, std::move(initial));
  EXPECT_LT(run_search(engine, Budget::steps(80)).best_makespan, initial_len);
  // The search starts from the supplied solution, so no row is worse.
  ASSERT_FALSE(engine.trace().empty());
  EXPECT_LE(engine.trace().front().best_makespan, initial_len);
}

TEST(SeEngine, SelectedCountDecreasesAsSearchConverges) {
  // Paper §5.1: many tasks selected early, few late. Compare the mean of
  // the first and last quartiles of the selected-count series.
  WorkloadParams wp;
  wp.tasks = 60;
  wp.machines = 8;
  wp.connectivity = Level::kHigh;
  wp.seed = 5;
  const Workload w = make_workload(wp);
  SeParams p = quick_params(5);
  p.bias = 0.0;
  const SeRun r = run_se(w, p, 100);
  const std::size_t q = r.trace.size() / 4;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    early += static_cast<double>(r.trace[i].num_selected);
    late += static_cast<double>(r.trace[r.trace.size() - 1 - i].num_selected);
  }
  EXPECT_LT(late, early);
}

TEST(SeEngine, RespectsIterationCap) {
  // A step budget of 5 runs exactly 5 iterations, one trace row each.
  const Workload w = figure1_workload();
  const SeRun r = run_se(w, quick_params(1), 5);
  EXPECT_EQ(r.result.steps, 5u);
  EXPECT_EQ(r.trace.size(), 5u);
}

TEST(SeEngine, ObserverCanStopEarly) {
  const Workload w = figure1_workload();
  SeEngine engine(w, quick_params(1));
  std::size_t calls = 0;
  const SearchResult r =
      run_search(engine, Budget::steps(100), [&calls](const StepStats&) {
        ++calls;
        return calls < 3;
      });
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(r.steps, 3u);
  EXPECT_EQ(engine.trace().size(), 3u);
}

TEST(SeEngine, StallStopTriggers) {
  // A stall rule is an observer: stop after 10 iterations without
  // improving the best makespan.
  const Workload w = figure1_workload();
  SeEngine engine(w, quick_params(2));
  double best = std::numeric_limits<double>::infinity();
  std::size_t stall = 0;
  const SearchResult r = run_search(
      engine, Budget::steps(1000), [&](const StepStats& stats) {
        stall = stats.best_makespan < best ? 0 : stall + 1;
        best = std::min(best, stats.best_makespan);
        return stall < 10;
      });
  EXPECT_LT(r.steps, 1000u);
  EXPECT_EQ(stall, 10u);
}

TEST(SeEngine, TraceDisabledLeavesTraceEmpty) {
  const Workload w = figure1_workload();
  SeParams p = quick_params(1);
  p.record_trace = false;
  const SeRun r = run_se(w, p, 5);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_EQ(r.result.steps, 5u);
}

TEST(SeEngine, DefaultBiasResolvedFromProblemSize) {
  const Workload small = figure1_workload();
  EXPECT_LT(SeEngine(small, SeParams{}).effective_bias(), 0.0);

  WorkloadParams wp;
  wp.tasks = 100;
  wp.machines = 10;
  wp.seed = 1;
  const Workload large = make_workload(wp);
  EXPECT_GT(SeEngine(large, SeParams{}).effective_bias(), 0.0);

  SeParams p;
  p.bias = -0.25;
  EXPECT_DOUBLE_EQ(SeEngine(small, p).effective_bias(), -0.25);
}

TEST(SeEngine, YLimitAffectsRuntimeNotValidity) {
  WorkloadParams wp;
  wp.tasks = 40;
  wp.machines = 10;
  wp.seed = 6;
  const Workload w = make_workload(wp);
  for (std::size_t y : {2u, 5u, 10u}) {
    SeParams p = quick_params(6);
    p.y_limit = y;
    const SearchResult r = run_se(w, p, 20).result;
    EXPECT_TRUE(is_valid_schedule(w, r.schedule)) << "Y=" << y;
  }
}

TEST(SeEngine, RunFromRejectsInvalidString) {
  // The initial-solution constructor checks the string up front.
  const Workload w = figure1_workload();
  // Invalid: s4 (needs s0, s1) first.
  const std::vector<TaskId> order{4, 0, 1, 2, 3, 5, 6};
  const std::vector<MachineId> asg(7, 0);
  EXPECT_THROW(SeEngine(w, quick_params(1), SolutionString(order, asg)),
               Error);

  // A valid one is where init() restarts from, even after steps.
  const std::vector<TaskId> valid{0, 1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(SolutionString(valid, asg).is_valid(w.graph()));
  SeEngine engine(w, quick_params(1), SolutionString(valid, asg));
  const double initial_len = schedule_makespan(w, SolutionString(valid, asg));
  for (int round = 0; round < 2; ++round) {
    engine.init();
    EXPECT_EQ(engine.best_makespan(), initial_len);
    EXPECT_EQ(engine.best_schedule().assignment, asg);
    for (int i = 0; i < 5; ++i) engine.step();
  }
}

TEST(SeEngine, TimeLimitStopsRun) {
  // A wall-clock budget stops the run long before its step count would.
  WorkloadParams wp;
  wp.tasks = 80;
  wp.machines = 10;
  wp.seed = 7;
  const Workload w = make_workload(wp);
  SeEngine engine(w, quick_params(7));
  const SearchResult r = run_search(engine, Budget::seconds(0.05));
  EXPECT_GE(r.seconds, 0.05);
  EXPECT_LT(r.seconds, 5.0);
  EXPECT_LT(r.steps, 1000000u);
}

}  // namespace
}  // namespace sehc
