// Extension table: every registered scheduler (SE, GA, GSA, HEFT, CPOP,
// DLS, the levelized mappers, SA, tabu and random search) on
// representative workload classes, with quality as a mean over seeds
// against the makespan lower bound and as a performance profile against
// the per-problem best. This contextualizes the paper's two heuristics
// inside the broader baseline landscape of its survey references [4][5].
//
// Runs as a campaign over scheduler_names(): --threads parallelizes the
// cells, --seeds adds seeded repetitions per class, and the tables are
// identical for any --threads value.
#include <iostream>

#include "analysis/report.h"
#include "core/options.h"
#include "exp/campaign.h"
#include "heuristics/scheduler.h"
#include "workload/generator.h"

namespace {

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"budget", "seed", "seeds", "threads"});
  const auto budget = static_cast<std::size_t>(
      opts.get_int("budget", static_cast<std::int64_t>(scaled(150, 10))));
  const auto seed = opts.get_seed("seed", 42);

  std::cout << "=== Baseline comparison: all schedulers, iterative budget "
            << budget << " ===\n\n";

  CampaignSpec spec;
  spec.name = "baselines";
  spec.classes = {
      {"high-conn", paper_fig5_high_connectivity(seed)},
      {"ccr1", paper_fig6_ccr1(seed)},
      {"low-all", paper_fig7_low_everything(seed)},
      {"small", paper_small(seed)},
  };
  spec.schedulers = scheduler_names();
  spec.repetitions = static_cast<std::size_t>(opts.get_int("seeds", 1));
  spec.iterations = budget;
  spec.base_seed = seed;

  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions run_opts;
  run_opts.threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  run_opts.strict = true;
  run_campaign(spec, store, run_opts);

  const CampaignDataset dataset = build_dataset(store);
  const ReportOptions report;
  write_table(std::cout, summary_table(dataset, report),
              ReportFormat::kMarkdown);
  std::cout << "\n";
  write_table(std::cout, profile_table(dataset, report),
              ReportFormat::kMarkdown);
  std::cout << "\n(mean_vs_lb: ratio to the makespan lower bound; tau=t: "
               "fraction of (class, seed) problems solved within t x the "
               "best makespan)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
