// Reproduces Figure 3 of the paper (§5.1, "Effectiveness of SE for MSHC"):
//
//   Fig 3a — number of selected subtasks versus iteration
//   Fig 3b — schedule length of the current solution at each iteration
//
// on a workload of large size and high connectivity, plus the §5.1 claim
// check across all workload classes: the selected count must decay from a
// large initial fraction to a small steady-state fraction as individuals
// reach good locations.
//
// Expected shape (paper): selected count starts near k and decreases
// steadily; the current schedule length drops quickly then flattens.
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "exp/figures.h"
#include "exp/sweep.h"
#include "se/se.h"
#include "workload/generator.h"

namespace {

using namespace sehc;

void run_main_figure(std::size_t iterations, std::uint64_t seed) {
  const WorkloadParams wp = paper_large_high_connectivity(seed);
  const Workload w = make_workload(wp);
  print_figure_banner(std::cout, "Figure 3",
                      "SE convergence: selected subtasks and schedule length "
                      "per iteration",
                      w, wp.describe());

  SeParams p;
  p.seed = seed;
  p.bias = -0.1;  // uniform SE configuration across all figure benches
  SeEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(iterations));
  const std::vector<SeIterationStats>& trace = engine.trace();

  std::cout << "bias=" << format_fixed(engine.effective_bias(), 2)
            << " iterations=" << r.steps
            << " best=" << format_fixed(r.best_makespan, 1)
            << " seconds=" << format_fixed(r.seconds, 2) << "\n\n";
  write_se_trace_csv(std::cout, trace, 60);

  // Summary of the §5.1 claim on this run.
  const std::size_t q = trace.size() / 4;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    early += static_cast<double>(trace[i].num_selected);
    late += static_cast<double>(trace[trace.size() - 1 - i].num_selected);
  }
  std::cout << "\nselected-count decay: first-quartile mean="
            << format_fixed(early / static_cast<double>(q), 1)
            << " last-quartile mean="
            << format_fixed(late / static_cast<double>(q), 1) << "\n";
}

struct ClassRow {
  std::size_t k = 0;
  double early = 0.0;
  double late = 0.0;
  double initial_len = 0.0;
  double final_best = 0.0;
};

void run_class_sweep(std::size_t iterations, std::uint64_t seed,
                     std::size_t threads) {
  std::cout << "\n--- selected-count decay across workload classes (5.1) ---\n";
  struct ClassDef {
    const char* name;
    WorkloadParams params;
  };
  const std::vector<ClassDef> classes{
      {"large/high-conn", paper_large_high_connectivity(seed)},
      {"large/low-het", paper_large_low_heterogeneity(seed)},
      {"large/high-het", paper_large_high_heterogeneity(seed)},
      {"fig6/ccr1", paper_fig6_ccr1(seed)},
      {"fig7/low-all", paper_fig7_low_everything(seed)},
      {"small", paper_small(seed)},
  };

  const SweepGrid grid({{"class", classes.size()}});
  SweepOptions sweep_opts;
  sweep_opts.threads = threads;
  const auto rows =
      sweep_map(grid, sweep_opts, [&](const SweepCell& cell) -> ClassRow {
        const ClassDef& c = classes[cell.at(0)];
        const Workload w = make_workload(c.params);
        SeParams p;
        p.seed = seed;
        p.bias = -0.1;
        SeEngine engine(w, p);
        const SearchResult r = run_search(engine, Budget::steps(iterations));
        const std::vector<SeIterationStats>& trace = engine.trace();
        const std::size_t q = std::max<std::size_t>(1, trace.size() / 4);
        ClassRow row;
        row.k = w.num_tasks();
        for (std::size_t i = 0; i < q; ++i) {
          row.early += static_cast<double>(trace[i].num_selected);
          row.late +=
              static_cast<double>(trace[trace.size() - 1 - i].num_selected);
        }
        row.early /= static_cast<double>(q);
        row.late /= static_cast<double>(q);
        row.initial_len = trace.front().current_makespan;
        row.final_best = r.best_makespan;
        return row;
      });

  Table table({"class", "k", "early_selected", "late_selected", "initial_len",
               "final_best"});
  for (std::size_t i = 0; i < classes.size(); ++i) {
    table.begin_row()
        .add(std::string(classes[i].name))
        .add(rows[i].k)
        .add(rows[i].early, 1)
        .add(rows[i].late, 1)
        .add(rows[i].initial_len, 1)
        .add(rows[i].final_best, 1);
  }
  table.write_markdown(std::cout);
}

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"iterations", "seed", "threads"});
  const auto iterations = static_cast<std::size_t>(
      opts.get_int("iterations",
                   static_cast<std::int64_t>(scaled(300, 20))));
  const auto seed = opts.get_seed("seed", 42);
  const auto threads = static_cast<std::size_t>(opts.get_int("threads", 1));

  run_main_figure(iterations, seed);
  run_class_sweep(std::max<std::size_t>(iterations / 3, 20), seed, threads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
