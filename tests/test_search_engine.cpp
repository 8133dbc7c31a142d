// Differential suite for the unified stepwise search-engine core: for every
// searcher, run_search under a step budget must be bit-identical to the
// bare init() + N x step() loop at the same seed — schedules, stats and
// evaluator trials — and every one-shot engine the scheduler registry
// builds must match its plain schedule function. Plus the Budget semantics
// (steps / evals / seconds), which are the only way a searcher stops, and
// the uniform observer hook.
#include "search/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"
#include "exp/anytime.h"
#include "ga/ga.h"
#include "heuristics/annealing.h"
#include "heuristics/cpop.h"
#include "heuristics/heft.h"
#include "heuristics/random_search.h"
#include "heuristics/scheduler.h"
#include "heuristics/tabu.h"
#include "sched/validate.h"
#include "se/se.h"
#include "workload/generator.h"

namespace sehc {
namespace {

constexpr const char* kSearchers[] = {"SE", "GA", "GSA", "SA", "Tabu",
                                      "Random"};

Workload small_workload(std::uint64_t seed) {
  WorkloadParams p;
  p.tasks = 24;
  p.machines = 5;
  p.seed = seed;
  return make_workload(p);
}

/// run_search(driven, steps(n)) against the bare init() + n x step() loop
/// on an identically built engine: same best, evals and schedule, bit for
/// bit.
void expect_driver_matches_bare_loop(SearchEngine& driven, SearchEngine& bare,
                                     std::size_t n) {
  const SearchResult r = run_search(driven, Budget::steps(n));
  bare.init();
  StepStats last;
  for (std::size_t i = 0; i < n; ++i) last = bare.step();
  EXPECT_EQ(r.steps, n);
  EXPECT_EQ(bare.steps_done(), n);
  EXPECT_EQ(last.step + 1, n);
  EXPECT_EQ(last.best_makespan, r.best_makespan);
  EXPECT_EQ(bare.best_makespan(), r.best_makespan);
  EXPECT_EQ(bare.evals_used(), r.evals);
  const Schedule schedule = bare.best_schedule();
  EXPECT_EQ(schedule.makespan, r.schedule.makespan);
  EXPECT_EQ(schedule.assignment, r.schedule.assignment);
  EXPECT_EQ(schedule.start, r.schedule.start);
}

TEST(SearchEngineCore, SeStepwiseMatchesRun) {
  const Workload w = small_workload(11);
  const SeParams p = comparison_se_params(7);
  SeEngine driven(w, p);
  SeEngine bare(w, p);
  expect_driver_matches_bare_loop(driven, bare, 30);
}

TEST(SearchEngineCore, GaStepwiseMatchesRun) {
  const Workload w = small_workload(12);
  GaParams p = comparison_ga_params(9);
  p.population = 16;
  GaEngine driven(w, p);
  GaEngine bare(w, p);
  expect_driver_matches_bare_loop(driven, bare, 20);
}

TEST(SearchEngineCore, GsaStepwiseMatchesRun) {
  const Workload w = small_workload(13);
  GsaParams p = comparison_gsa_params(5);
  p.population = 12;
  GsaEngine driven(w, p);
  GsaEngine bare(w, p);
  expect_driver_matches_bare_loop(driven, bare, 20);
}

TEST(SearchEngineCore, TabuStepwiseMatchesWrapper) {
  const Workload w = small_workload(14);
  const TabuParams p = comparison_tabu_params(3);
  TabuEngine driven(w, p);
  TabuEngine bare(w, p);
  expect_driver_matches_bare_loop(driven, bare, 120);
}

TEST(SearchEngineCore, SaStepwiseMatchesWrapper) {
  const Workload w = small_workload(15);
  const SaParams p = comparison_sa_params(Budget::steps(400), 8);
  SaEngine driven(w, p);
  SaEngine bare(w, p);
  expect_driver_matches_bare_loop(driven, bare, 400);
}

TEST(SearchEngineCore, RandomStepwiseMatchesWrapper) {
  const Workload w = small_workload(16);
  RandomSearchEngine driven(w, 21);
  RandomSearchEngine bare(w, 21);
  expect_driver_matches_bare_loop(driven, bare, 64);
  EXPECT_EQ(bare.evals_used(), 64u);  // one trial per sample, exactly
}

TEST(SearchEngineCore, SchedulerAdaptersMatchEngines) {
  // Every registered name builds, reports its name and yields a valid
  // schedule; each one-shot engine (the adapter over a plain schedule
  // function) matches that function in one step with no evaluator trials.
  const Workload w = small_workload(17);
  const std::size_t budget = 8;
  for (const std::string& name : scheduler_names()) {
    const SchedulerInfo* info = find_scheduler(name);
    ASSERT_NE(info, nullptr) << name;
    const Budget steps = Budget::steps(budget * info->steps_per_iteration);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, steps, 33);
    EXPECT_EQ(engine->name(), name);
    const SearchResult via_engine = run_search(*engine, steps);
    EXPECT_TRUE(validate_schedule(w, via_engine.schedule).empty()) << name;
    if (info->one_shot != nullptr) {
      EXPECT_EQ(via_engine.schedule.makespan, info->one_shot(w).makespan)
          << name;
      EXPECT_EQ(via_engine.steps, 1u) << name;
      EXPECT_EQ(via_engine.evals, 0u) << name;
    }
  }
}

TEST(SearchEngineCore, StepsBudgetStopsExactly) {
  // The budget is the only stop: every searcher runs exactly 9 steps and
  // would happily take a tenth.
  const Workload w = small_workload(18);
  for (const char* name : kSearchers) {
    const Budget budget = Budget::steps(9);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, budget, 4);
    const SearchResult r = run_search(*engine, budget);
    EXPECT_EQ(r.steps, 9u) << name;
    EXPECT_EQ(engine->steps_done(), 9u) << name;
    EXPECT_FALSE(engine->done()) << name;
  }
}

TEST(SearchEngineCore, EvalsBudgetStopsAtFirstStepBoundary) {
  const Workload w = small_workload(19);
  for (const char* name : kSearchers) {
    const std::size_t budget = 500;
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, Budget::evals(budget), 6);
    const SearchResult r = run_search(*engine, Budget::evals(budget));
    EXPECT_GE(r.evals, budget) << name;
    // Replaying the driver's step count by hand: every step but the last
    // starts under the budget, so the run stopped at the first boundary at
    // or past it.
    SCOPED_TRACE(name);
    const std::unique_ptr<SearchEngine> replay =
        make_search_engine(name, w, Budget::evals(budget), 6);
    replay->init();
    for (std::size_t i = 0; i < r.steps; ++i) {
      EXPECT_LT(replay->evals_used(), budget) << "step " << i;
      replay->step();
    }
    EXPECT_EQ(replay->evals_used(), r.evals);
    EXPECT_EQ(replay->best_makespan(), r.best_makespan);
  }
}

TEST(SearchEngineCore, EvalsBudgetIsDeterministic) {
  const Workload w = small_workload(20);
  for (const char* name : kSearchers) {
    const Budget budget = Budget::evals(800);
    const std::unique_ptr<SearchEngine> a =
        make_search_engine(name, w, budget, 9);
    const std::unique_ptr<SearchEngine> b =
        make_search_engine(name, w, budget, 9);
    const SearchResult ra = run_search(*a, budget);
    const SearchResult rb = run_search(*b, budget);
    EXPECT_EQ(ra.best_makespan, rb.best_makespan) << name;
    EXPECT_EQ(ra.steps, rb.steps) << name;
    EXPECT_EQ(ra.evals, rb.evals) << name;
  }
}

TEST(SearchEngineCore, SecondsBudgetStops) {
  // No searcher can stop early, so every one spends the whole budget.
  const Workload w = small_workload(21);
  for (const char* name : kSearchers) {
    const Budget budget = Budget::seconds(0.05);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, budget, 2);
    const SearchResult r = run_search(*engine, budget);
    EXPECT_GE(r.seconds, budget.wall_seconds) << name;
    EXPECT_GT(r.steps, 0u) << name;
    EXPECT_TRUE(validate_schedule(w, r.schedule).empty()) << name;
  }
}

TEST(SearchEngineCore, ObserverCanStopEarly) {
  const Workload w = small_workload(22);
  SeEngine engine(w, comparison_se_params(3));
  std::size_t calls = 0;
  const SearchResult r =
      run_search(engine, Budget::steps(100), [&](const StepStats& stats) {
        EXPECT_EQ(stats.step, calls);
        ++calls;
        return calls < 5;
      });
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(r.steps, 5u);
}

TEST(SearchEngineCore, StepStatsAreConsistent) {
  const Workload w = small_workload(23);
  const std::unique_ptr<SearchEngine> engine =
      make_search_engine("Tabu", w, Budget::steps(50), 5);
  engine->init();
  double prev_best = std::numeric_limits<double>::infinity();
  std::size_t prev_evals = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const StepStats stats = engine->step();
    EXPECT_LE(stats.best_makespan, prev_best);
    EXPECT_GE(stats.evals_used, prev_evals);
    EXPECT_EQ(stats.evals_used, engine->evals_used());
    prev_best = stats.best_makespan;
    prev_evals = stats.evals_used;
  }
  EXPECT_EQ(engine->steps_done(), 50u);
}

TEST(SearchEngineCore, OneShotEngineIsSingleStep) {
  // HEFT as a degenerate single-step engine: one step produces the exact
  // schedule heft_schedule produces, consumes no evaluator trials, and a
  // second step is an error.
  const Workload w = small_workload(27);
  const Schedule direct = heft_schedule(w);

  const std::unique_ptr<SearchEngine> engine =
      make_search_engine("HEFT", w, Budget::steps(1), 0);
  EXPECT_EQ(engine->name(), "HEFT");
  engine->init();
  EXPECT_FALSE(engine->done());
  EXPECT_EQ(engine->steps_done(), 0u);
  EXPECT_EQ(engine->best_makespan(),
            std::numeric_limits<double>::infinity());  // nothing yet

  const StepStats stats = engine->step();
  EXPECT_TRUE(engine->done());
  EXPECT_EQ(stats.step, 0u);
  EXPECT_EQ(stats.best_makespan, direct.makespan);
  EXPECT_EQ(stats.evals_used, 0u);
  EXPECT_EQ(engine->steps_done(), 1u);
  EXPECT_EQ(engine->evals_used(), 0u);
  EXPECT_EQ(engine->best_makespan(), direct.makespan);
  EXPECT_EQ(engine->best_schedule().makespan, direct.makespan);
  EXPECT_THROW(engine->step(), Error);

  // init() rearms it.
  engine->init();
  EXPECT_FALSE(engine->done());
  EXPECT_EQ(run_search(*engine, Budget::evals(100)).best_makespan,
            direct.makespan);
}

TEST(SearchEngineCore, OneShotEngineFlatAnytimeCurve) {
  // Under an eval budget the one-shot curve is a single improvement at
  // x = 0 evals plus the terminal point — i.e. flat at the final makespan
  // from the origin of the axis.
  const Workload w = small_workload(28);
  const Schedule direct = cpop_schedule(w);
  const std::unique_ptr<SearchEngine> engine =
      make_search_engine("CPOP", w, Budget::evals(500), 0);
  const auto curve = run_anytime(*engine, Budget::evals(500));
  ASSERT_GE(curve.size(), 1u);
  EXPECT_EQ(curve.front().seconds, 0.0);
  for (const AnytimePoint& point : curve) {
    EXPECT_EQ(point.best, direct.makespan);
  }
  EXPECT_EQ(value_at(curve, 0.0), direct.makespan);
}

TEST(SearchEngineCore, MakeSearchEngineRejectsNonEngines) {
  // Only names outside the registry are rejected, and the error lists every
  // registered name; one-shot schedulers build like the searchers.
  const Workload w = small_workload(24);
  EXPECT_NE(make_search_engine("HEFT", w, Budget::steps(5), 1), nullptr);
  EXPECT_EQ(find_scheduler("nope"), nullptr);
  try {
    make_search_engine("nope", w, Budget::steps(5), 1);
    ADD_FAILURE() << "unknown name accepted";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'nope'"), std::string::npos) << message;
    for (const std::string& name : scheduler_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
  for (const char* name : kSearchers) {
    EXPECT_EQ(find_scheduler(name)->one_shot, nullptr) << name;
  }
}

TEST(SearchEngineCore, BudgetValidation) {
  EXPECT_THROW(Budget::steps(0).validate(), Error);
  EXPECT_THROW(Budget::evals(0).validate(), Error);
  EXPECT_THROW(Budget::seconds(0.0).validate(), Error);
  EXPECT_THROW(
      Budget::seconds(std::numeric_limits<double>::infinity()).validate(),
      Error);
  EXPECT_NO_THROW(Budget::steps(1).validate());
  EXPECT_EQ(Budget::steps(5).describe(), "5 steps");
  EXPECT_EQ(Budget::evals(7).describe(), "7 evals");
  EXPECT_EQ(Budget::seconds(1.5).describe(), "1.50 s");
  EXPECT_EQ(Budget::evals(7).axis_end(), 7.0);
}

TEST(SearchEngineCore, ReinitRestartsFromScratch) {
  const Workload w = small_workload(25);
  SeEngine engine(w, comparison_se_params(6));
  const SearchResult first = run_search(engine, Budget::steps(12));
  const SearchResult second = run_search(engine, Budget::steps(12));
  EXPECT_EQ(first.best_makespan, second.best_makespan);
  EXPECT_EQ(first.evals, second.evals);
}

TEST(SearchEngineCore, RunAnytimeStepAxisMatchesLegacyShape) {
  // The generic anytime driver on the steps axis reproduces the exact
  // shape the deleted run_se_anytime_iters produced: improving points at
  // (iteration + 1) plus a terminal point at the budget.
  const Workload w = small_workload(26);
  const SeParams p = comparison_se_params(4);
  SeEngine engine(w, p);

  CurveRecorder expected;
  SeEngine reference(w, p);
  const SearchResult ref_result =
      run_search(reference, Budget::steps(15), [&](const StepStats& stats) {
        expected.record(static_cast<double>(stats.step + 1),
                        stats.best_makespan);
        return true;
      });
  expected.finish(static_cast<double>(ref_result.steps),
                  ref_result.best_makespan);

  const auto curve = run_anytime(engine, Budget::steps(15));
  ASSERT_EQ(curve.size(), expected.curve().size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i].seconds, expected.curve()[i].seconds);
    EXPECT_EQ(curve[i].best, expected.curve()[i].best);
  }
}

}  // namespace
}  // namespace sehc
