// Extension table for the §5.3 claims: SE vs GA across the full grid of
// workload classes (connectivity x heterogeneity x CCR), several seeds
// each, under an equal per-run iteration budget.
//
// Paper claim: "SE produced better solutions than GA with less time, for
// workloads with relatively high connectivity, and/or high heterogeneity,
// and/or high CCR. ... for low to medium connectivity, heterogeneity and
// CCR, the conclusion is not as clear."
//
// The grid runs as a campaign (the built-in paper-class-grid spec): cells
// execute as a parallel sweep with iteration budgets, so the table is a
// deterministic function of the spec — byte-identical at any --threads
// value (wall time goes to stderr, the one nondeterministic number). Pass
// --store PATH to persist records (reruns resume instead of recomputing;
// see README "Campaigns" for sharding across processes) and --scale to
// switch to the 27-class x 10-seed scaled-class-grid. Equal-time framing
// lives in the fig5-7 anytime benches.
#include <algorithm>
#include <iostream>
#include <thread>

#include "analysis/report.h"
#include "core/options.h"
#include "core/table.h"
#include "exp/campaign.h"

namespace {

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"iters", "seeds", "tasks", "machines",
                                  "threads", "store", "scale"});
  CampaignSpec spec =
      make_builtin_campaign(opts.has("scale") ? "scaled-class-grid"
                                              : "paper-class-grid");
  // SE iterations == GA generations; at the defaults both heuristics are
  // past their warm-up phase on this problem size.
  spec.iterations = static_cast<std::size_t>(
      opts.get_int("iters", static_cast<std::int64_t>(scaled(150, 10))));
  spec.repetitions = static_cast<std::size_t>(
      opts.get_int("seeds", static_cast<std::int64_t>(spec.repetitions)));
  for (CampaignClass& c : spec.classes) {
    c.params.tasks = static_cast<std::size_t>(opts.get_int("tasks", 100));
    c.params.machines =
        static_cast<std::size_t>(opts.get_int("machines", 20));
  }
  spec.validate();

  const std::size_t tasks = spec.classes.front().params.tasks;
  const std::size_t machines = spec.classes.front().params.machines;
  std::cout << "=== Class grid: SE vs GA, " << tasks << " tasks x " << machines
            << " machines, " << spec.iterations << " iterations, "
            << spec.repetitions << " seeds per cell ===\n\n";

  const std::string store_path = opts.get("store", "");
  ResultStore store = store_path.empty()
                          ? ResultStore::in_memory(spec.store_schema())
                          : ResultStore::open(store_path, spec.store_schema());

  CampaignRunOptions run_opts;
  run_opts.threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  const CampaignRunSummary summary = run_campaign(spec, store, run_opts);

  // The head-to-head aggregation (means, ratio, wins, paired sign /
  // Wilcoxon p-values) comes from the analysis subsystem; sehc_report
  // renders the full report (CIs, crossings, profiles) from --store files.
  const CampaignDataset dataset = build_dataset(store);
  write_table(std::cout, pair_comparison_table(dataset, ReportOptions{}),
              ReportFormat::kMarkdown);
  std::cout << "\n(SE/GA < 1 means SE found shorter schedules in the budget; "
               "class = connectivity-heterogeneity-ccr)\n";

  const std::size_t threads = run_opts.threads;
  const std::size_t workers = std::min(
      threads == 0 ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
                   : threads,
      summary.total_cells);
  std::cerr << "campaign: " << summary.total_cells << " cells ("
            << summary.resumed_cells << " resumed) on " << workers
            << " thread(s) in " << format_fixed(summary.seconds, 2) << " s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
