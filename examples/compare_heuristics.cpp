// Runs every registered scheduler (SE, GA, GSA, HEFT, CPOP, DLS, min-min,
// max-min, MCT, OLB, SA, tabu and random search) on a workload class of
// your choice and prints the comparison tables.
//
// The seeded repetitions execute as a campaign: pass --threads N to spread
// the cells over N workers. The tables are identical for any N.
//
//   $ ./compare_heuristics [--tasks 60] [--machines 10] [--conn high]
//                          [--het medium] [--ccr 0.5] [--budget 80]
//                          [--seeds 3] [--threads 1]
#include <iostream>

#include "analysis/report.h"
#include "core/options.h"
#include "exp/campaign.h"
#include "heuristics/scheduler.h"
#include "workload/generator.h"

namespace {

sehc::Level level_from(const std::string& s) {
  if (s == "low") return sehc::Level::kLow;
  if (s == "medium") return sehc::Level::kMedium;
  if (s == "high") return sehc::Level::kHigh;
  throw sehc::Error("expected low|medium|high, got " + s);
}

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"tasks", "machines", "conn", "het", "ccr",
                                  "budget", "seeds", "threads"});
  WorkloadParams wp;
  wp.tasks = static_cast<std::size_t>(opts.get_int("tasks", 60));
  wp.machines = static_cast<std::size_t>(opts.get_int("machines", 10));
  wp.connectivity = level_from(opts.get("conn", "high"));
  wp.heterogeneity = level_from(opts.get("het", "medium"));
  wp.ccr = opts.get_double("ccr", 0.5);
  wp.seed = 100;

  CampaignSpec spec;
  spec.name = "compare-heuristics";
  spec.classes = {{"workload", wp}};
  spec.schedulers = scheduler_names();
  spec.repetitions = static_cast<std::size_t>(opts.get_int("seeds", 3));
  spec.iterations = static_cast<std::size_t>(opts.get_int("budget", 80));
  spec.base_seed = wp.seed;

  std::cout << "Comparing all schedulers on " << wp.describe() << " over "
            << spec.repetitions << " seeds (iterative budget "
            << spec.iterations << ")\n\n";

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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
