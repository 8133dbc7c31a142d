#include "heuristics/gsa.h"

#include <gtest/gtest.h>

#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

GsaParams quick_params(std::uint64_t seed) {
  GsaParams p;
  p.seed = seed;
  p.population = 16;
  return p;
}

/// A finished GSA run: the driver's result plus the engine's trace.
struct GsaRun {
  SearchResult result;
  std::vector<GsaIterationStats> trace;
};

GsaRun run_gsa(const Workload& w, const GsaParams& p,
               std::size_t generations = 40) {
  GsaEngine engine(w, p);
  SearchResult result = run_search(engine, Budget::steps(generations));
  return {std::move(result), engine.trace()};
}

TEST(GsaEngine, ProducesValidSchedule) {
  WorkloadParams wp;
  wp.tasks = 30;
  wp.machines = 5;
  wp.seed = 1;
  const Workload w = make_workload(wp);
  const SearchResult r = run_gsa(w, quick_params(1)).result;
  EXPECT_TRUE(is_valid_schedule(w, r.schedule));
  EXPECT_TRUE(r.schedule.to_solution().is_valid(w.graph()));
  EXPECT_DOUBLE_EQ(r.schedule.makespan, r.best_makespan);
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
}

TEST(GsaEngine, DeterministicPerSeed) {
  WorkloadParams wp;
  wp.tasks = 20;
  wp.machines = 4;
  wp.seed = 2;
  const Workload w = make_workload(wp);
  const SearchResult a = run_gsa(w, quick_params(9)).result;
  const SearchResult b = run_gsa(w, quick_params(9)).result;
  EXPECT_DOUBLE_EQ(a.best_makespan, b.best_makespan);
  EXPECT_EQ(a.schedule.assignment, b.schedule.assignment);
  EXPECT_EQ(a.schedule.start, b.schedule.start);
}

TEST(GsaEngine, BestIsMonotone) {
  WorkloadParams wp;
  wp.tasks = 30;
  wp.machines = 5;
  wp.seed = 3;
  const Workload w = make_workload(wp);
  const GsaRun r = run_gsa(w, quick_params(3), 60);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].best_makespan, r.trace[i - 1].best_makespan + 1e-9);
  }
}

TEST(GsaEngine, TemperatureCools) {
  const Workload w = figure1_workload();
  const GsaRun r = run_gsa(w, quick_params(4), 30);
  ASSERT_GE(r.trace.size(), 2u);
  EXPECT_LT(r.trace.back().temperature, r.trace.front().temperature);
}

TEST(GsaEngine, AcceptRateDeclinesWithTemperature) {
  // Early hot generations accept most children; cold ones accept fewer.
  WorkloadParams wp;
  wp.tasks = 40;
  wp.machines = 6;
  wp.seed = 5;
  const Workload w = make_workload(wp);
  GsaParams p = quick_params(5);
  p.cooling = 0.95;
  const GsaRun r = run_gsa(w, p, 200);
  const std::size_t q = r.trace.size() / 4;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    early += r.trace[i].accept_rate;
    late += r.trace[r.trace.size() - 1 - i].accept_rate;
  }
  EXPECT_GT(early, late);
}

TEST(GsaEngine, ObserverCanStopEarly) {
  const Workload w = figure1_workload();
  GsaEngine engine(w, quick_params(1));
  std::size_t calls = 0;
  const SearchResult r =
      run_search(engine, Budget::steps(100), [&calls](const StepStats&) {
        ++calls;
        return calls < 5;
      });
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(r.steps, 5u);
  EXPECT_EQ(engine.trace().size(), 5u);
}

TEST(GsaEngine, ImprovesOverInitialBest) {
  WorkloadParams wp;
  wp.tasks = 40;
  wp.machines = 6;
  wp.seed = 6;
  const Workload w = make_workload(wp);
  const GsaRun r = run_gsa(w, quick_params(6), 150);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_LT(r.result.best_makespan, r.trace.front().best_makespan * 1.001);
}

TEST(GsaEngine, ParameterValidation) {
  const Workload w = figure1_workload();
  GsaParams p;
  p.population = 1;
  EXPECT_THROW(GsaEngine(w, p), Error);
  p = GsaParams{};
  p.cooling = 1.0;
  EXPECT_THROW(GsaEngine(w, p), Error);
  p = GsaParams{};
  p.initial_acceptance = 1.0;
  EXPECT_THROW(GsaEngine(w, p), Error);
}

}  // namespace
}  // namespace sehc
