// Reproduces Figure 4 of the paper (§5.2, "Effect of Y parameter"):
//
//   Fig 4a — schedule length vs iteration for Y in {5, 9, 12} on a large
//            workload of LOW heterogeneity: larger Y should improve both
//            the final quality and the convergence rate.
//   Fig 4b — the same sweep on HIGH heterogeneity: quality improves only up
//            to a point (paper: Y = 9 best); pushing Y beyond it hurts the
//            early iterations.
//
// Also reports wall time per Y, which must grow with Y (§5.2: "the timing
// requirements for the SE algorithm increase as Y increases").
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "exp/figures.h"
#include "exp/sweep.h"
#include "se/se.h"
#include "workload/generator.h"

namespace {

using namespace sehc;

struct YRun {
  std::size_t y;
  SearchResult result;
  std::vector<SeIterationStats> trace;
};

void run_panel(const char* figure_id, const WorkloadParams& wp,
               const std::vector<std::size_t>& y_values,
               std::size_t iterations, std::uint64_t seed,
               std::size_t threads) {
  const Workload w = make_workload(wp);
  print_figure_banner(std::cout, figure_id,
                      "schedule length vs iteration for several Y", w,
                      wp.describe());

  const SweepGrid grid({{"Y", y_values.size()}});
  SweepOptions sweep_opts;
  sweep_opts.threads = threads;
  const auto runs =
      sweep_map(grid, sweep_opts, [&](const SweepCell& cell) -> YRun {
        const std::size_t y = y_values[cell.at(0)];
        SeParams p;
        p.seed = seed;
        p.y_limit = y;
        p.bias = -0.1;  // uniform SE configuration across all figure benches
        SeEngine engine(w, p);
        SearchResult result = run_search(engine, Budget::steps(iterations));
        return YRun{y, std::move(result), engine.trace()};
      });

  // Iteration-indexed series, downsampled to ~30 rows.
  std::cout << "iteration";
  for (const YRun& r : runs) std::cout << ",best_Y" << r.y;
  std::cout << "\n";
  const std::size_t rows = 30;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t it =
        iterations <= rows ? i : i * (iterations - 1) / (rows - 1);
    if (it >= runs.front().trace.size()) break;
    std::cout << it;
    for (const YRun& r : runs) {
      std::cout << ',' << format_fixed(r.trace[it].best_makespan, 1);
    }
    std::cout << "\n";
  }

  Table summary({"Y", "best_makespan", "seconds", "combinations_per_iter"});
  for (const YRun& r : runs) {
    double moved = 0.0;
    for (const auto& row : r.trace)
      moved += static_cast<double>(row.tasks_moved);
    summary.begin_row()
        .add(r.y)
        .add(r.result.best_makespan, 1)
        .add(r.result.seconds, 2)
        .add(moved / static_cast<double>(r.trace.size()), 1);
  }
  std::cout << "\n";
  summary.write_markdown(std::cout);

  // Shape check: time must increase with Y. Only meaningful on a serial
  // sweep (--threads 1); co-scheduled runs contend for cores.
  bool time_monotone = true;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].result.seconds < runs[i - 1].result.seconds) {
      time_monotone = false;
    }
  }
  std::cout << "runtime grows with Y: " << (time_monotone ? "yes" : "no")
            << "\n\n";
}

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"iterations", "seed", "threads"});
  const auto iterations = static_cast<std::size_t>(
      opts.get_int("iterations", static_cast<std::int64_t>(scaled(250, 15))));
  const auto seed = opts.get_seed("seed", 42);
  const auto threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  const std::vector<std::size_t> y_values{5, 9, 12};

  run_panel("Figure 4a (low heterogeneity)",
            paper_large_low_heterogeneity(seed), y_values, iterations, seed,
            threads);
  run_panel("Figure 4b (high heterogeneity)",
            paper_large_high_heterogeneity(seed), y_values, iterations, seed,
            threads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
