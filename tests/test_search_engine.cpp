// Differential suite for the unified stepwise search-engine core: for every
// searcher, run_search under a step budget must be bit-identical to the
// bare init() + N x step() loop at the same seed — schedules, stats and
// evaluator trials — and every one-shot engine the scheduler registry
// builds must match its plain schedule function. Plus the Budget semantics
// (steps / evals / seconds), which are the only way a searcher stops, the
// uniform observer hook, the Searcher contract every searcher shares
// (consistent StepStats, re-init() from scratch, no step or schedule before
// init()), and memory per solve that stays linear in the request.
#include "search/engine.h"

#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/error.h"
#include "exp/anytime.h"
#include "exp/campaign.h"
#include "ga/ga.h"
#include "hc/workload_io.h"
#include "heuristics/annealing.h"
#include "heuristics/cpop.h"
#include "heuristics/heft.h"
#include "heuristics/random_search.h"
#include "heuristics/scheduler.h"
#include "heuristics/tabu.h"
#include "obs/metrics.h"
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
  for (const char* name : kSearchers) {
    SCOPED_TRACE(name);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, Budget::steps(50), 5);
    engine->init();
    double prev_best = engine->best_makespan();
    std::size_t prev_evals = engine->evals_used();
    double prev_seconds = 0.0;
    for (std::size_t i = 0; i < 50; ++i) {
      const StepStats stats = engine->step();
      EXPECT_EQ(stats.step, i);
      EXPECT_LE(stats.best_makespan, prev_best);
      EXPECT_GE(stats.evals_used, prev_evals);
      EXPECT_GE(stats.elapsed_seconds, prev_seconds);
      EXPECT_EQ(stats.best_makespan, engine->best_makespan());
      EXPECT_EQ(stats.evals_used, engine->evals_used());
      EXPECT_EQ(engine->steps_done(), i + 1);
      EXPECT_EQ(engine->best_schedule().makespan, stats.best_makespan);
      prev_best = stats.best_makespan;
      prev_evals = stats.evals_used;
      prev_seconds = stats.elapsed_seconds;
    }
  }
}

TEST(SearchEngineCore, StepAndBestScheduleThrowBeforeInit) {
  const Workload w = small_workload(29);
  for (const char* name : kSearchers) {
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, Budget::steps(5), 3);
    EXPECT_THROW(engine->step(), Error) << name;
    EXPECT_THROW(engine->best_schedule(), Error) << name;
  }
  // Random search holds no solution until its first sample.
  RandomSearchEngine random(w, 3);
  random.init();
  EXPECT_EQ(random.best_makespan(), std::numeric_limits<double>::infinity());
  EXPECT_THROW(random.best_schedule(), Error);
  random.step();
  EXPECT_EQ(random.best_schedule().makespan, random.best_makespan());
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

/// The engine SeEngine builds from the comparison parameters with `edit`
/// applied, run for `steps` steps.
template <typename Edit>
SearchResult run_se_with(const Workload& w, std::uint64_t seed,
                         std::size_t steps, Edit edit) {
  SeParams p = comparison_se_params(seed);
  edit(p);
  SeEngine engine(w, p);
  return run_search(engine, Budget::steps(steps));
}

TEST(SchedulerRegistry, SeNamesCarryTheirParameters) {
  const Workload w = small_workload(31);
  const auto by_name = [&](const std::string& name) {
    const auto engine = make_search_engine(name, w, Budget::steps(6), 9);
    EXPECT_EQ(engine->name(), name);
    EXPECT_EQ(find_scheduler(name), find_scheduler("SE")) << name;
    return run_search(*engine, Budget::steps(6));
  };
  const auto expect_same = [](const SearchResult& a, const SearchResult& b,
                              const std::string& name) {
    EXPECT_EQ(a.best_makespan, b.best_makespan) << name;
    EXPECT_EQ(a.evals, b.evals) << name;
    EXPECT_EQ(a.schedule.assignment, b.schedule.assignment) << name;
    EXPECT_EQ(a.schedule.start, b.schedule.start) << name;
  };
  expect_same(by_name("SE[Y=2]"),
              run_se_with(w, 9, 6, [](SeParams& p) { p.y_limit = 2; }),
              "SE[Y=2]");
  expect_same(by_name("SE[B=-0.2]"),
              run_se_with(w, 9, 6, [](SeParams& p) { p.bias = -0.2; }),
              "SE[B=-0.2]");
  expect_same(by_name("SE[B=0]"),
              run_se_with(w, 9, 6, [](SeParams& p) { p.bias = 0.0; }),
              "SE[B=0]");
  // A Y above the machine count clamps to every machine, plain SE's Y.
  expect_same(by_name("SE[Y=50]"), by_name("SE"), "SE[Y=50]");
  const SolutionString heft = heft_schedule(w).to_solution(w);
  SeParams p = comparison_se_params(9);
  p.y_limit = 3;
  p.bias = 0.05;
  SeEngine from_heft(w, p, heft);
  expect_same(by_name("SE[Y=3,B=0.05,init=HEFT]"),
              run_search(from_heft, Budget::steps(6)),
              "SE[Y=3,B=0.05,init=HEFT]");
}

TEST(SchedulerRegistry, MalformedNamesAreUnknownEverywhere) {
  const Workload w = small_workload(32);
  CampaignSpec spec = make_builtin_campaign("se-init-study");
  for (const char* name :
       {"SE[]", "SE[Y=0]", "SE[B=nan]", "SE[B=0.1,Y=5]", "GA[Y=9]",
        "SE[init=CPOP]", "SE[Y=09]", "SE[B=+0.1]", "SE[B=1e-1]",
        "SE[B=0.050]", "SE[B=-0]", "SE[B=inf]", "SE[B=-0.1]", "SE[Y=5,Y=5]",
        "SE[Y=-1]", "SE[Y=5.0]", "SE[Y=5", "SE[Y=5]x", "SE[Y=5,]",
        "SE[,Y=5]", "SE[Y]", "SE[y=5]", "SE [Y=5]", "HEFT[]",
        "SE[Y=99999999999999999999]"}) {
    EXPECT_EQ(find_scheduler(name), nullptr) << name;
    EXPECT_THROW(make_search_engine(name, w, Budget::steps(1), 1), Error)
        << name;
    spec.schedulers = {"HEFT", name};
    EXPECT_THROW(spec.validate(), Error) << name;
  }
}

TEST(SchedulerRegistry, SeCountsSelectedAndMovedTasksPerStep) {
  const Workload w = small_workload(33);
  SeParams p = comparison_se_params(4);
  p.name = "SE[Y=3]";
  p.y_limit = 3;
  p.record_trace = true;
  SeEngine engine(w, p);
  MetricsRegistry registry;
  {
    const MetricsScope scope(&registry);
    run_search(engine, Budget::steps(7));
  }
  std::uint64_t selected = 0;
  std::uint64_t moved = 0;
  for (const SeIterationStats& row : engine.trace()) {
    selected += row.num_selected;
    moved += row.tasks_moved;
  }
  const MetricsSnapshot snap = registry.snapshot();
  const auto counter = [&snap](const std::string& name) {
    for (const auto& [key, count] : snap.counters) {
      if (key == name) return count;
    }
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  EXPECT_EQ(counter("engine/SE[Y=3]/selected"), selected);
  EXPECT_EQ(counter("engine/SE[Y=3]/moved"), moved);
  EXPECT_EQ(counter("engine/SE[Y=3]/steps"), 7u);
  EXPECT_GT(selected, 0u);
}

TEST(SearchEngineCore, BudgetValidation) {
  EXPECT_THROW(Budget::steps(0).validate(), Error);
  EXPECT_THROW(Budget::evals(0).validate(), Error);
  EXPECT_THROW(Budget::seconds(0.0).validate(), Error);
  EXPECT_THROW(
      Budget::seconds(std::numeric_limits<double>::infinity()).validate(),
      Error);
  EXPECT_NO_THROW(Budget::steps(1).validate());
  EXPECT_EQ(Budget::evals(7).axis_end(), 7.0);
}

TEST(SearchEngineCore, ReinitRestartsFromScratch) {
  // A second init() replays the first run's 12 steps bit for bit: steps,
  // bests and trial counts (wall time aside), and the same best schedule.
  const Workload w = small_workload(25);
  for (const char* name : kSearchers) {
    SCOPED_TRACE(name);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, Budget::steps(12), 6);
    std::vector<StepStats> runs[2];
    Schedule schedules[2];
    for (auto run : {0, 1}) {
      engine->init();
      for (std::size_t i = 0; i < 12; ++i) runs[run].push_back(engine->step());
      schedules[run] = engine->best_schedule();
    }
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_EQ(runs[0][i].step, runs[1][i].step);
      EXPECT_EQ(runs[0][i].best_makespan, runs[1][i].best_makespan);
      EXPECT_EQ(runs[0][i].evals_used, runs[1][i].evals_used);
    }
    EXPECT_EQ(schedules[0].assignment, schedules[1].assignment);
    EXPECT_EQ(schedules[0].start, schedules[1].start);
  }
}

TEST(SearchEngineCore, OverflowingMakespanStillHasAnIncumbent) {
  // Two tasks of 1e308 on one machine: every makespan overflows to
  // +infinity. The first string a searcher evaluates (its start, or random
  // search's first sample) is still its incumbent, so the run returns a
  // schedule.
  Matrix<double> exec(1, 2);
  exec(0, 0) = 1e308;
  exec(0, 1) = 1e308;
  const Workload w(TaskGraph(2), MachineSet(1), std::move(exec),
                   Matrix<double>(0, 0));
  for (const char* name : kSearchers) {
    SCOPED_TRACE(name);
    const Budget budget = Budget::steps(3);
    const std::unique_ptr<SearchEngine> engine =
        make_search_engine(name, w, budget, 2);
    const SearchResult r = run_search(*engine, budget);
    EXPECT_EQ(r.best_makespan, std::numeric_limits<double>::infinity());
    EXPECT_EQ(r.schedule.num_tasks(), 2u);
  }
}

/// A workload document with no edges: k tasks on l machines whose times
/// vary with the task and machine (so SE's start is not already on a best
/// machine for every task, and its selection moves something).
std::string edge_free_document(std::size_t k, std::size_t l) {
  std::string doc = "sehc-workload v1\nmachines " + std::to_string(l) +
                    "\nsehc-dag v1\ntasks " + std::to_string(k) +
                    "\nend-dag\nexec\n";
  for (std::size_t m = 0; m < l; ++m) {
    for (std::size_t t = 0; t < k; ++t) {
      doc += std::to_string(1 + (31 * m + 17 * t) % 9);
      doc += t + 1 < k ? ' ' : '\n';
    }
  }
  return doc;
}

/// Runs `name` for 3 steps on `w` and exits 0, with the process's address
/// space capped at 512 MiB. Call it inside EXPECT_EXIT.
[[noreturn]] void solve_under_address_limit(const char* name,
                                            const Workload& w) {
  rlimit limit{};
  if (getrlimit(RLIMIT_AS, &limit) != 0) _exit(2);
  limit.rlim_cur = std::min(rlim_t{512} << 20, limit.rlim_max);
  if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(2);
  const Budget budget = Budget::steps(3);
  const std::unique_ptr<SearchEngine> engine =
      make_search_engine(name, w, budget, 1);
  run_search(*engine, budget);
  _exit(0);
}

TEST(SearchEngineCore, SolvesFitUnderAnAddressLimit) {
  // An edge-free request of a few tens of KB must not make a solve allocate
  // by l^2 (the evaluator's machine-pair table, SE's reassign lanes) or by
  // k^2 l (a tabu table over every attribute). Sanitizers reserve more
  // address space than the limit, so their builds skip this.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer build";
#endif
#endif
  const Workload wide = workload_from_string(edge_free_document(2, 9000));
  for (const char* name : kSearchers) {
    EXPECT_EXIT(solve_under_address_limit(name, wide),
                ::testing::ExitedWithCode(0), "")
        << name;
  }
  const Workload long_string =
      workload_from_string(edge_free_document(2500, 20));
  EXPECT_EXIT(solve_under_address_limit("Tabu", long_string),
              ::testing::ExitedWithCode(0), "");
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
