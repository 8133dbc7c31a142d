// Scheduling a Gaussian-elimination task graph — the classic structured
// workload of the heterogeneous-scheduling literature — across a suite of
// machines with different affinities.
//
// Compares SE against HEFT and min-min on the same instance and shows how
// the schedule tightens as the SE iteration budget grows.
//
//   $ ./gaussian_elimination [--n 8] [--machines 6] [--seed 1]
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "dag/levels.h"
#include "heuristics/heft.h"
#include "heuristics/level_mappers.h"
#include "sched/bounds.h"
#include "sched/gantt.h"
#include "se/se.h"
#include "workload/generator.h"
#include "workload/structured.h"

namespace {

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"n", "machines", "seed"});
  const auto n = static_cast<std::size_t>(opts.get_int("n", 8));
  const auto machines = static_cast<std::size_t>(opts.get_int("machines", 6));
  const auto seed = opts.get_seed("seed", 1);

  TaskGraph g = gaussian_elimination_dag(n);
  std::cout << "Gaussian elimination, n=" << n << ": " << g.num_tasks()
            << " tasks, " << g.num_edges() << " data items, depth "
            << num_levels(g) << "\n";

  const Workload w = make_workload_for_graph(std::move(g), machines,
                                             Level::kHigh, 0.5, 100.0, seed);
  std::cout << "lower bound " << format_fixed(makespan_lower_bound(w), 1)
            << ", serial upper bound "
            << format_fixed(serial_upper_bound(w), 1) << "\n\n";

  Table table({"scheduler", "makespan", "vs_lb"});
  const double lb = makespan_lower_bound(w);
  auto report = [&](const std::string& name, double makespan) {
    table.begin_row().add(name).add(makespan, 1).add(makespan / lb, 3);
  };

  report("HEFT", heft_schedule(w).makespan);
  report("MinMin", minmin_schedule(w).makespan);
  for (std::size_t iters : {25u, 100u, 400u}) {
    SeParams p;
    p.seed = seed;
    SeEngine engine(w, p);
    report("SE x" + std::to_string(iters),
           run_search(engine, Budget::steps(iters)).best_makespan);
  }
  table.write_markdown(std::cout);

  // Show the final SE schedule for the small default instance.
  SeParams p;
  p.seed = seed;
  SeEngine engine(w, p);
  const SearchResult best = run_search(engine, Budget::steps(400));
  std::cout << "\nSE schedule (400 iterations):\n";
  write_gantt(std::cout, w, best.schedule);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
