#include "heuristics/annealing.h"

#include <gtest/gtest.h>

#include "heuristics/random_search.h"
#include "heuristics/scheduler.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// `moves` SA moves with the comparison suite's cooling ladder for that
/// budget (one temperature level per moves / 200).
SearchResult anneal(const Workload& w, std::size_t moves, std::uint64_t seed) {
  const Budget budget = Budget::steps(moves);
  SaEngine engine(w, comparison_sa_params(budget, seed));
  return run_search(engine, budget);
}

TEST(Annealing, ProducesValidSchedule) {
  WorkloadParams p;
  p.tasks = 30;
  p.machines = 5;
  p.seed = 1;
  const Workload w = make_workload(p);
  const SearchResult r = anneal(w, 2000, 7);
  EXPECT_TRUE(is_valid_schedule(w, r.schedule));
  EXPECT_DOUBLE_EQ(r.schedule.makespan, r.best_makespan);
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
  EXPECT_EQ(r.steps, 2000u);
}

TEST(Annealing, DeterministicPerSeed) {
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 4;
  p.seed = 2;
  const Workload w = make_workload(p);
  EXPECT_DOUBLE_EQ(anneal(w, 1000, 3).best_makespan,
                   anneal(w, 1000, 3).best_makespan);
}

TEST(Annealing, BeatsRandomSearchOnEqualBudget) {
  // SA reuses information between moves; random sampling does not. On a
  // moderately sized problem SA should win (or tie) on most seeds.
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  int sa_wins = 0;
  const int trials = 5;
  for (int i = 0; i < trials; ++i) {
    p.seed = 100 + static_cast<std::uint64_t>(i);
    const Workload w = make_workload(p);
    const double sa = anneal(w, 3000, 11).best_makespan;
    RandomSearchEngine random(w, 11);
    const double rs = run_search(random, Budget::steps(3000)).best_makespan;
    sa_wins += (sa <= rs);
  }
  EXPECT_GE(sa_wins, trials - 1);
}

TEST(Annealing, InvalidCoolingThrows) {
  const Workload w = figure1_workload();
  SaParams sp;
  sp.cooling = 1.5;
  EXPECT_THROW(SaEngine(w, sp), Error);
  sp.cooling = 0.0;
  EXPECT_THROW(SaEngine(w, sp), Error);
  sp = SaParams{};
  sp.steps_per_temp = 0;
  EXPECT_THROW(SaEngine(w, sp), Error);
}

TEST(Annealing, ZeroIterationsReturnsInitial) {
  // init() alone already holds a complete, valid incumbent.
  const Workload w = figure1_workload();
  SaEngine engine(w, SaParams{});
  engine.init();
  EXPECT_TRUE(is_valid_schedule(w, engine.best_schedule()));
  EXPECT_EQ(engine.best_schedule().makespan, engine.best_makespan());
  EXPECT_EQ(engine.steps_done(), 0u);
}

}  // namespace
}  // namespace sehc
