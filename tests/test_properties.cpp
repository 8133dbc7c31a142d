// Parameterized property tests sweeping workload classes: every scheduler's
// output must be a valid schedule within the theoretical bounds, SE/GA
// invariants must hold, and the encoding must survive arbitrary valid-range
// move sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/rng.h"
#include "dag/topo.h"
#include "ga/ga.h"
#include "heuristics/scheduler.h"
#include "sched/bounds.h"
#include "sched/validate.h"
#include "se/se.h"
#include "workload/generator.h"
#include "workload/structured.h"

namespace sehc {
namespace {

using ClassParam = std::tuple<Level /*conn*/, Level /*het*/, double /*ccr*/>;

std::string class_name(const testing::TestParamInfo<ClassParam>& info) {
  const auto& [conn, het, ccr] = info.param;
  std::string s = std::string("conn_") + to_string(conn) + "_het_" +
                  to_string(het) + "_ccr";
  s += ccr < 0.5 ? "01" : (ccr < 2.0 ? "1" : "5");
  return s;
}

class WorkloadClassTest : public testing::TestWithParam<ClassParam> {
 protected:
  Workload make(std::uint64_t seed, std::size_t tasks = 30,
                std::size_t machines = 5) const {
    const auto& [conn, het, ccr] = GetParam();
    WorkloadParams p;
    p.tasks = tasks;
    p.machines = machines;
    p.connectivity = conn;
    p.heterogeneity = het;
    p.ccr = ccr;
    p.seed = seed;
    return make_workload(p);
  }
};

TEST_P(WorkloadClassTest, RandomSolutionsAreValidAndBounded) {
  const Workload w = make(1);
  const double lb = makespan_lower_bound(w);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const SolutionString s =
        random_initial_solution(w.graph(), w.num_machines(), rng);
    ASSERT_TRUE(s.is_valid(w.graph()));
    const Schedule sched = Schedule::from_solution(w, s);
    EXPECT_TRUE(validate_schedule(w, sched).empty());
    EXPECT_GE(sched.makespan, lb - 1e-9);
  }
}

TEST_P(WorkloadClassTest, ArbitraryValidRangeMoveSequencesStayValid) {
  const Workload w = make(2);
  Rng rng(2);
  SolutionString s = random_initial_solution(w.graph(), w.num_machines(), rng);
  for (int i = 0; i < 300; ++i) {
    const TaskId t = static_cast<TaskId>(rng.below(w.num_tasks()));
    const ValidRange r = s.valid_range(w.graph(), t);
    s.move_task(t, r.lo + static_cast<std::size_t>(rng.below(r.size())));
    s.set_machine(t, static_cast<MachineId>(rng.below(w.num_machines())));
  }
  EXPECT_TRUE(s.is_valid(w.graph()));
}

TEST_P(WorkloadClassTest, SeProducesValidBoundedSchedules) {
  const Workload w = make(3);
  SeParams p;
  p.seed = 3;
  p.verify_invariants = true;
  SeEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(15));
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty());
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
  EXPECT_LE(r.best_makespan, serial_upper_bound(w) * 3.0);
}

TEST_P(WorkloadClassTest, GaProducesValidBoundedSchedules) {
  const Workload w = make(4);
  GaParams p;
  p.seed = 4;
  p.population = 16;
  p.verify_invariants = true;
  GaEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(15));
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty());
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9);
}

TEST_P(WorkloadClassTest, DeterministicSchedulersAgreeAcrossCalls) {
  const Workload w = make(5);
  for (const char* name : {"HEFT", "CPOP"}) {
    const Budget one_step = Budget::steps(1);
    const auto engine = make_search_engine(name, w, one_step, /*seed=*/0);
    const Schedule a = run_search(*engine, one_step).schedule;
    const Schedule b = run_search(*engine, one_step).schedule;
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan) << engine->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, WorkloadClassTest,
    testing::Values(
        ClassParam{Level::kLow, Level::kLow, 0.1},
        ClassParam{Level::kLow, Level::kHigh, 1.0},
        ClassParam{Level::kMedium, Level::kMedium, 0.5},
        ClassParam{Level::kHigh, Level::kLow, 1.0},
        ClassParam{Level::kHigh, Level::kHigh, 0.1},
        ClassParam{Level::kHigh, Level::kHigh, 5.0}),
    class_name);

/// Seed sweep: SE invariants across many seeds on one medium class.
class SeedSweepTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, SeInvariantsHold) {
  WorkloadParams wp;
  wp.tasks = 25;
  wp.machines = 4;
  wp.seed = GetParam();
  const Workload w = make_workload(wp);
  SeParams p;
  p.seed = GetParam();
  p.verify_invariants = true;
  SeEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(20));
  // Best is the minimum of the current-makespan series and monotone.
  double running_best = engine.trace().front().current_makespan;
  for (const auto& row : engine.trace()) {
    running_best = std::min(running_best, row.current_makespan);
    EXPECT_DOUBLE_EQ(row.best_makespan, running_best);
    EXPECT_LE(row.num_selected, w.num_tasks());
    EXPECT_LE(row.tasks_moved, row.num_selected);
  }
  EXPECT_DOUBLE_EQ(r.best_makespan, running_best);
}

TEST_P(SeedSweepTest, GaNeverLosesBestChromosome) {
  WorkloadParams wp;
  wp.tasks = 25;
  wp.machines = 4;
  wp.seed = GetParam();
  const Workload w = make_workload(wp);
  GaParams p;
  p.seed = GetParam();
  p.population = 12;
  GaEngine engine(w, p);
  run_search(engine, Budget::steps(20));
  const std::vector<GaIterationStats>& trace = engine.trace();
  for (std::size_t i = 1; i < trace.size(); ++i) {
    // Elitism: generation best never regresses past best-ever.
    EXPECT_LE(trace[i].best_makespan, trace[i - 1].best_makespan + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// Structured-graph sweep: SE on known DAG families stays valid.
struct StructuredFamily {
  const char* name;
  TaskGraph (*factory)();
};

// Print the family by name so the listed test names (and the ctest names
// discovered from them) do not carry pointer values that vary per run.
void PrintTo(const StructuredFamily& f, std::ostream* os) { *os << f.name; }

class StructuredSweepTest : public testing::TestWithParam<StructuredFamily> {};

TaskGraph make_gauss() { return gaussian_elimination_dag(5); }
TaskGraph make_fft() { return fft_dag(8); }
TaskGraph make_forkjoin() { return fork_join_dag(4, 3); }
TaskGraph make_diamond() { return diamond_dag(4, 4); }
TaskGraph make_laplace() { return laplace_dag(4); }

TEST_P(StructuredSweepTest, SeHandlesStructuredGraphs) {
  const auto& [name, factory] = GetParam();
  const Workload w =
      make_workload_for_graph(factory(), 4, Level::kMedium, 0.5, 100.0, 7);
  SeParams p;
  p.seed = 7;
  p.verify_invariants = true;
  SeEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(15));
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty()) << name;
  EXPECT_GE(r.best_makespan, makespan_lower_bound(w) - 1e-9) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, StructuredSweepTest,
    testing::Values(StructuredFamily{"gauss", &make_gauss},
                    StructuredFamily{"fft", &make_fft},
                    StructuredFamily{"forkjoin", &make_forkjoin},
                    StructuredFamily{"diamond", &make_diamond},
                    StructuredFamily{"laplace", &make_laplace}),
    [](const testing::TestParamInfo<StructuredFamily>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sehc
