// Ablation of SE's starting point and allocation breadth.
//
// Two questions the paper leaves open:
//   1. Does seeding SE with a constructive heuristic's solution (HEFT)
//      instead of a random initial solution help? (run_from vs run)
//   2. How much of the allocation breadth (Y) is actually needed once the
//      start is good?
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "exp/sweep.h"
#include "heuristics/heft.h"
#include "se/se.h"
#include "workload/generator.h"

namespace {

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"iterations", "seed", "threads"});
  const auto iterations = static_cast<std::size_t>(
      opts.get_int("iterations", static_cast<std::int64_t>(scaled(100, 10))));
  const auto seed = opts.get_seed("seed", 42);
  const auto threads = static_cast<std::size_t>(opts.get_int("threads", 1));

  std::cout << "=== Ablation: initial solution x allocation breadth Y ===\n\n";

  struct Case {
    const char* name;
    WorkloadParams params;
  };
  const std::vector<Case> cases{
      {"high-conn", paper_fig5_high_connectivity(seed)},
      {"low-all", paper_fig7_low_everything(seed)},
  };

  for (const Case& c : cases) {
    const Workload w = make_workload(c.params);
    const Schedule heft = heft_schedule(w);
    const SolutionString heft_seeded = heft.to_solution();
    std::cout << "--- " << c.name << " (" << c.params.describe()
              << "), HEFT alone = " << format_fixed(heft.makespan, 1)
              << " ---\n";

    // Y x init as a parallel sweep; rows come back in grid order.
    const std::vector<std::size_t> y_values{2, 5, 0};  // 0 = all machines
    const SweepGrid grid({{"Y", y_values.size()}, {"init", 2}});
    SweepOptions sweep_opts;
    sweep_opts.threads = threads;
    const auto runs =
        sweep_map(grid, sweep_opts, [&](const SweepCell& cell) -> SeResult {
          SeParams p;
          p.seed = seed;
          p.y_limit = y_values[cell.at(0)];
          p.max_iterations = iterations;
          SeEngine engine(w, p);
          return cell.at(1) == 1 ? engine.run_from(heft_seeded) : engine.run();
        });

    Table table({"init", "Y", "best_makespan", "seconds"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto coords = grid.coords(i);
      const std::size_t y = y_values[coords[0]];
      table.begin_row()
          .add(coords[1] == 1 ? "HEFT-seeded" : "random")
          .add(y == 0 ? std::string("all") : std::to_string(y))
          .add(runs[i].best_makespan, 1)
          .add(runs[i].seconds, 2);
    }
    table.write_markdown(std::cout);
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
