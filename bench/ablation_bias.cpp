// Ablation of the selection bias B (paper §4.4).
//
// The paper prescribes negative B (-0.1..-0.3) for small problems and
// positive B (0..0.1) for large ones. This bench sweeps B on one small and
// one large workload and reports final quality, runtime and mean selected
// count — making the thoroughness/speed trade-off the bias controls visible.
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "exp/sweep.h"
#include "se/se.h"
#include "workload/generator.h"

namespace {

using namespace sehc;

void sweep_bias(const char* label, const WorkloadParams& wp,
                std::size_t iterations, std::size_t threads) {
  const Workload w = make_workload(wp);
  std::cout << "--- " << label << " (" << wp.describe() << "), " << iterations
            << " iterations ---\n";
  const std::vector<double> biases{-0.3, -0.2, -0.1, 0.0, 0.05, 0.1};

  const SweepGrid grid({{"bias", biases.size()}});
  SweepOptions sweep_opts;
  sweep_opts.threads = threads;
  const auto runs =
      sweep_map(grid, sweep_opts, [&](const SweepCell& cell) -> SeResult {
        SeParams p;
        p.seed = wp.seed;
        p.bias = biases[cell.at(0)];
        p.max_iterations = iterations;
        return SeEngine(w, p).run();
      });

  Table table({"bias", "best_makespan", "seconds", "mean_selected"});
  for (std::size_t i = 0; i < biases.size(); ++i) {
    const SeResult& r = runs[i];
    double selected = 0.0;
    for (const auto& row : r.trace)
      selected += static_cast<double>(row.num_selected);
    table.begin_row()
        .add(biases[i], 2)
        .add(r.best_makespan, 1)
        .add(r.seconds, 2)
        .add(selected / static_cast<double>(r.trace.size()), 1);
  }
  table.write_markdown(std::cout);
  std::cout << "\n";
}

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"iterations", "seed", "threads"});
  const auto iterations = static_cast<std::size_t>(
      opts.get_int("iterations", static_cast<std::int64_t>(scaled(120, 15))));
  const auto seed = opts.get_seed("seed", 42);
  const auto threads = static_cast<std::size_t>(opts.get_int("threads", 1));

  std::cout << "=== Ablation: selection bias B ===\n\n";
  sweep_bias("small workload", paper_small(seed), iterations * 3, threads);
  sweep_bias("large workload", paper_large_high_connectivity(seed), iterations,
             threads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
