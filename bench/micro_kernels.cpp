// google-benchmark microbenchmarks for the kernels that dominate SE/GA
// runtime: full-schedule evaluation, valid-range queries, string moves,
// the random initial solution, the GA crossover, goodness precomputation,
// and workload generation.
#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "dag/topo.h"
#include "ga/operators.h"
#include "se/allocation.h"
#include "se/goodness.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"
#include "workload/generator.h"

namespace {

using namespace sehc;

Workload bench_workload(std::size_t tasks, std::size_t machines) {
  WorkloadParams p;
  p.tasks = tasks;
  p.machines = machines;
  p.connectivity = Level::kHigh;
  p.seed = 7;
  return make_workload(p);
}

void BM_EvaluateMakespan(benchmark::State& state) {
  const Workload w =
      bench_workload(static_cast<std::size_t>(state.range(0)), 20);
  Evaluator eval(w);
  Rng rng(1);
  const SolutionString s =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.makespan(s));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EvaluateMakespan)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

void BM_FullEvaluate(benchmark::State& state) {
  const Workload w =
      bench_workload(static_cast<std::size_t>(state.range(0)), 20);
  Evaluator eval(w);
  Rng rng(1);
  const SolutionString s =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(s).makespan);
  }
}
BENCHMARK(BM_FullEvaluate)->Arg(100)->Arg(400);

void BM_ValidRange(benchmark::State& state) {
  const Workload w = bench_workload(200, 20);
  Rng rng(2);
  const SolutionString s =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  TaskId t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.valid_range(w.graph(), t));
    t = (t + 1) % static_cast<TaskId>(w.num_tasks());
  }
}
BENCHMARK(BM_ValidRange);

void BM_MoveTask(benchmark::State& state) {
  const Workload w = bench_workload(200, 20);
  Rng rng(3);
  SolutionString s = random_initial_solution(w.graph(), w.num_machines(), rng);
  TaskId t = 0;
  for (auto _ : state) {
    const ValidRange r = s.valid_range(w.graph(), t);
    s.move_task(t, r.lo + (r.size() > 1 ? r.size() / 2 : 0));
    benchmark::DoNotOptimize(s);
    t = (t + 1) % static_cast<TaskId>(w.num_tasks());
  }
}
BENCHMARK(BM_MoveTask);

// The paper's random initial solution at k = 100, l = 20. Arg 0 is the
// graph-only overload (a fresh topological order and a new string per
// draw); arg 1 is the engines' path on the workload's cached order, into a
// reused string.
void BM_RandomInitialSolution(benchmark::State& state) {
  const Workload w = bench_workload(100, 20);
  Rng rng(5);
  SolutionString s;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      s = random_initial_solution(w.graph(), w.num_machines(), rng);
    } else {
      random_initial_solution(w.graph(), w.topo_order(), w.num_machines(), rng,
                              s);
    }
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RandomInitialSolution)->Arg(0)->Arg(1);

// One GA crossover (scheduling then matching) of two k = 100 parents into
// reused children.
void BM_Crossover(benchmark::State& state) {
  const Workload w = bench_workload(100, 20);
  Rng rng(6);
  const SolutionString a =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  const SolutionString b =
      random_initial_solution(w.graph(), w.num_machines(), rng);
  SolutionString ca;
  SolutionString cb;
  for (auto _ : state) {
    crossover(a, b, rng, ca, cb);
    benchmark::DoNotOptimize(ca);
    benchmark::DoNotOptimize(cb);
  }
}
BENCHMARK(BM_Crossover);

void BM_OptimalCosts(benchmark::State& state) {
  const Workload w =
      bench_workload(static_cast<std::size_t>(state.range(0)), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_costs(w));
  }
}
BENCHMARK(BM_OptimalCosts)->Arg(100)->Arg(400);

void BM_TopologicalSort(benchmark::State& state) {
  const Workload w =
      bench_workload(static_cast<std::size_t>(state.range(0)), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topological_order(w.graph()));
  }
}
BENCHMARK(BM_TopologicalSort)->Arg(100)->Arg(400);

void BM_AllocateOneTask(benchmark::State& state) {
  const Workload w = bench_workload(100, 20);
  Evaluator eval(w);
  Evaluator::TrialBatch batch(eval);
  const MachineCandidates candidates(w,
                                     static_cast<std::size_t>(state.range(0)));
  Rng rng(4);
  SolutionString s = random_initial_solution(w.graph(), w.num_machines(), rng);
  TaskId t = 0;
  for (auto _ : state) {
    allocate_tasks(w, eval, candidates, {t}, s, rng, batch);
    t = (t + 1) % static_cast<TaskId>(w.num_tasks());
  }
}
BENCHMARK(BM_AllocateOneTask)->Arg(2)->Arg(5)->Arg(20);

void BM_MakeWorkload(benchmark::State& state) {
  WorkloadParams p;
  p.tasks = static_cast<std::size_t>(state.range(0));
  p.machines = 20;
  p.seed = 1;
  for (auto _ : state) {
    p.seed++;
    benchmark::DoNotOptimize(make_workload(p));
  }
}
BENCHMARK(BM_MakeWorkload)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
