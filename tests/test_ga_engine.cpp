#include "ga/ga.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "sched/bounds.h"
#include "sched/evaluator.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

GaParams quick_params(std::uint64_t seed) {
  GaParams p;
  p.seed = seed;
  p.population = 20;
  p.verify_invariants = true;
  return p;
}

/// A finished GA run: the driver's result plus the engine's trace.
struct GaRun {
  SearchResult result;
  std::vector<GaIterationStats> trace;
};

GaRun run_ga(const Workload& w, const GaParams& p,
             std::size_t generations = 30) {
  GaEngine engine(w, p);
  SearchResult result = run_search(engine, Budget::steps(generations));
  return {std::move(result), engine.trace()};
}

TEST(GaEngine, ProducesValidSchedule) {
  WorkloadParams wp;
  wp.tasks = 30;
  wp.machines = 4;
  wp.seed = 1;
  const Workload w = make_workload(wp);
  const SearchResult r = run_ga(w, quick_params(1)).result;
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty());
  EXPECT_TRUE(r.schedule.to_solution().is_valid(w.graph()));
  EXPECT_DOUBLE_EQ(r.schedule.makespan, r.best_makespan);
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
}

TEST(GaEngine, DeterministicPerSeed) {
  WorkloadParams wp;
  wp.tasks = 25;
  wp.machines = 4;
  wp.seed = 2;
  const Workload w = make_workload(wp);
  const SearchResult a = run_ga(w, quick_params(5)).result;
  const SearchResult b = run_ga(w, quick_params(5)).result;
  EXPECT_DOUBLE_EQ(a.best_makespan, b.best_makespan);
  EXPECT_EQ(a.schedule.assignment, b.schedule.assignment);
  EXPECT_EQ(a.schedule.start, b.schedule.start);
}

TEST(GaEngine, BestIsMonotoneAcrossGenerations) {
  WorkloadParams wp;
  wp.tasks = 40;
  wp.machines = 6;
  wp.seed = 3;
  const Workload w = make_workload(wp);
  const GaRun r = run_ga(w, quick_params(3), 50);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].best_makespan, r.trace[i - 1].best_makespan);
  }
}

TEST(GaEngine, ElitismKeepsGenBestAtMostBestEver) {
  WorkloadParams wp;
  wp.tasks = 30;
  wp.machines = 5;
  wp.seed = 4;
  const Workload w = make_workload(wp);
  const GaRun r = run_ga(w, quick_params(4), 40);
  const double best = r.result.best_makespan;
  for (const auto& g : r.trace) {
    EXPECT_GE(g.gen_best_makespan, best - 1e-9);
    EXPECT_GE(g.gen_mean_makespan, g.gen_best_makespan - 1e-9);
  }
  // With elite=1 the generation best should track the best-ever closely:
  // the elite individual is carried over unchanged.
  EXPECT_DOUBLE_EQ(r.trace.back().gen_best_makespan, best);
}

TEST(GaEngine, ImprovesOverFirstGeneration) {
  WorkloadParams wp;
  wp.tasks = 50;
  wp.machines = 8;
  wp.seed = 5;
  const Workload w = make_workload(wp);
  const GaRun r = run_ga(w, quick_params(5), 60);
  ASSERT_GE(r.trace.size(), 2u);
  EXPECT_LT(r.result.best_makespan, r.trace.front().gen_mean_makespan);
}

TEST(GaEngine, ObserverCanStopEarly) {
  const Workload w = figure1_workload();
  GaEngine engine(w, quick_params(1));
  std::size_t calls = 0;
  const SearchResult r =
      run_search(engine, Budget::steps(100), [&calls](const StepStats&) {
        ++calls;
        return calls < 4;
      });
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(r.steps, 4u);
  EXPECT_EQ(engine.trace().size(), 4u);
}

TEST(GaEngine, StallStopTriggers) {
  // A stall rule is an observer: stop after 8 generations without
  // improving the best makespan.
  const Workload w = figure1_workload();
  GaEngine engine(w, quick_params(2));
  double best = std::numeric_limits<double>::infinity();
  std::size_t stall = 0;
  const SearchResult r = run_search(
      engine, Budget::steps(100000), [&](const StepStats& stats) {
        stall = stats.best_makespan < best ? 0 : stall + 1;
        best = std::min(best, stats.best_makespan);
        return stall < 8;
      });
  EXPECT_LT(r.steps, 100000u);
  EXPECT_EQ(stall, 8u);
}

TEST(GaEngine, ParameterValidation) {
  const Workload w = figure1_workload();
  GaParams p;
  p.population = 1;
  EXPECT_THROW(GaEngine(w, p), Error);
  p = GaParams{};
  p.elite = p.population;
  EXPECT_THROW(GaEngine(w, p), Error);
  p = GaParams{};
  p.crossover_prob = 1.5;
  EXPECT_THROW(GaEngine(w, p), Error);
  p = GaParams{};
  p.mutation_prob = -0.1;
  EXPECT_THROW(GaEngine(w, p), Error);
}

TEST(GaEngine, ZeroCrossoverZeroMutationStillValid) {
  // Degenerate GA = selection + elitism only; must still run and be valid.
  const Workload w = figure1_workload();
  GaParams p = quick_params(3);
  p.crossover_prob = 0.0;
  p.mutation_prob = 0.0;
  EXPECT_TRUE(validate_schedule(w, run_ga(w, p, 10).result.schedule).empty());
}

}  // namespace
}  // namespace sehc
