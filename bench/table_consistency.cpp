// Extension table: effect of machine-consistency structure (Braun et al.,
// ref [4]) on the scheduler ranking. Consistent suites reward pure
// load-balancing; inconsistent suites reward matching-aware heuristics —
// the regime the paper's SE targets.
//
// Runs as a consistency x seed sweep; --threads parallelizes the cells
// (note the SE/GA columns are wall-clock-budgeted, so parallel cells
// contend for cores — keep --threads 1 for publication-grade numbers).
#include <array>
#include <iostream>

#include "core/options.h"
#include "core/table.h"
#include "exp/anytime.h"
#include "exp/sweep.h"
#include "heuristics/scheduler.h"
#include "workload/gen_matrices.h"
#include "workload/generator.h"

namespace {

/// The table's schedulers, in column order.
constexpr std::array<const char*, 4> kSchedulers{"SE", "GA", "HEFT", "MinMin"};

struct CellResult {
  double index = 0.0;
  std::array<double, kSchedulers.size()> makespan{};
};

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"budget", "seeds", "threads"});
  const double budget = opts.get_double("budget", 1.0 * scale_from_env());
  const auto num_seeds = static_cast<std::size_t>(opts.get_int("seeds", 2));
  const auto threads = static_cast<std::size_t>(opts.get_int("threads", 1));

  std::cout << "=== Machine consistency x scheduler (100 tasks, 20 machines, "
            << "budget " << format_fixed(budget, 2) << " s) ===\n\n";

  const std::vector<Consistency> levels{Consistency::kInconsistent,
                                        Consistency::kSemiConsistent,
                                        Consistency::kConsistent};

  const SweepGrid grid({{"consistency", levels.size()}, {"seed", num_seeds}});
  SweepOptions sweep_opts;
  sweep_opts.threads = threads;
  const auto results =
      sweep_map(grid, sweep_opts, [&](const SweepCell& cell) -> CellResult {
        WorkloadParams wp;
        wp.tasks = 100;
        wp.machines = 20;
        wp.heterogeneity = Level::kHigh;
        wp.consistency = levels[cell.at(0)];
        wp.seed = 500 + cell.at(1);  // pure function of the seed coordinate
        const Workload w = make_workload(wp);

        CellResult r;
        r.index = measure_consistency(w.exec_matrix());
        // Every scheduler in its comparison-suite configuration under the
        // shared wall-clock budget (the generic anytime driver enforces it;
        // HEFT and MinMin finish in their single step).
        const Budget time_budget = Budget::seconds(budget);
        for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
          const auto engine =
              make_search_engine(kSchedulers[s], w, time_budget, wp.seed);
          r.makespan[s] = value_at(run_anytime(*engine, time_budget), budget);
        }
        return r;
      });

  Table table({"consistency", "measured_index", "se_mean", "ga_mean",
               "heft_mean", "minmin_mean"});
  for (std::size_t ci = 0; ci < levels.size(); ++ci) {
    CellResult sum;
    for (std::size_t i = 0; i < num_seeds; ++i) {
      const CellResult& r = results[ci * num_seeds + i];
      sum.index += r.index;
      for (std::size_t s = 0; s < kSchedulers.size(); ++s) {
        sum.makespan[s] += r.makespan[s];
      }
    }
    const double n = static_cast<double>(num_seeds);
    table.begin_row()
        .add(std::string(to_string(levels[ci])))
        .add(sum.index / n, 3);
    for (const double total : sum.makespan) table.add(total / n, 1);
  }
  table.write_markdown(std::cout);
  std::cout << "\n(measured_index: 0 = coin-flip machine ordering per task, "
               "1 = total machine order)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
