// Generates workloads across the paper's classification axes, measures their
// realized characteristics (connectivity, heterogeneity, CCR, bounds) and
// optionally dumps one instance of --tasks x --machines in the
// sehc-workload text format.
//
// The generator grid (connectivity x heterogeneity x CCR) runs through the
// campaign subsystem's generic grid driver: the table is identical for any
// --threads value, and with --store PATH the measurements persist (reruns
// resume, shards via --shard I/N compose; see README "Campaigns").
//
//   $ ./workload_explorer [--tasks 100] [--machines 20] [--dump] [--threads 1]
//                         [--store metrics.csv] [--shard 0/1]
#include <iostream>
#include <sstream>

#include "core/error.h"
#include "core/options.h"
#include "core/table.h"
#include "exp/campaign.h"
#include "hc/metrics.h"
#include "hc/workload_io.h"
#include "workload/generator.h"

namespace {

int run(int argc, char** argv) {
  using namespace sehc;
  const Options opts(argc, argv, {"tasks", "machines", "dump", "seed",
                                  "threads", "store", "shard"});
  const auto tasks = static_cast<std::size_t>(opts.get_int("tasks", 100));
  const auto machines = static_cast<std::size_t>(opts.get_int("machines", 20));
  const auto seed = opts.get_seed("seed", 7);
  const auto threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  const auto shard = ShardPlan::parse(opts.get("shard", "0/1"));
  if (!shard) opts.reject("shard", "I/N with I < N (e.g. 0/4)");

  const std::vector<Level> levels{Level::kLow, Level::kMedium, Level::kHigh};
  const std::vector<double> ccrs{0.1, 1.0};

  const SweepGrid grid(
      {{"connectivity", levels.size()}, {"heterogeneity", levels.size()},
       {"ccr", ccrs.size()}});

  // Generic store-backed grid: the spec hash covers everything a cell's
  // measurements depend on, so a store can only resume an identical grid.
  StoreSchema schema;
  schema.kind = "workload-metrics";
  {
    std::ostringstream spec;
    spec << "workload-metrics v1 tasks=" << tasks << " machines=" << machines
         << " seed=" << seed << " levels=3 ccrs=0.1,1.0";
    schema.spec_line = spec.str();
    schema.spec_hash = content_hash64(spec.str());
  }
  schema.columns = {"connectivity", "heterogeneity", "ccr_target",
                    "items",        "measured_conn", "measured_het",
                    "measured_ccr", "cp_lb",         "serial_ub"};
  schema.volatile_columns = 0;  // measurements are fully deterministic

  const std::string store_path = opts.get("store", "");
  ResultStore store = store_path.empty()
                          ? ResultStore::in_memory(schema)
                          : ResultStore::open(store_path, schema);

  CampaignRunOptions run_opts;
  run_opts.threads = threads;
  run_opts.shard = *shard;

  run_store_grid(grid, store, run_opts, seed,
                 [&](const SweepCell& cell, const CellContext&) {
    WorkloadParams p;
    p.tasks = tasks;
    p.machines = machines;
    p.connectivity = levels[cell.at(0)];
    p.heterogeneity = levels[cell.at(1)];
    p.ccr = ccrs[cell.at(2)];
    p.seed = seed;
    const WorkloadMetrics m = measure(make_workload(p));
    return std::vector<std::string>{
        to_string(levels[cell.at(0)]),
        to_string(levels[cell.at(1)]),
        format_fixed(ccrs[cell.at(2)], 1),
        std::to_string(m.items),
        format_fixed(m.avg_degree, 2),
        format_fixed(m.heterogeneity, 3),
        format_fixed(m.ccr, 3),
        format_fixed(m.cp_best_exec, 0),
        format_fixed(m.serial_best_exec, 0)};
  });

  std::cout << "Realized workload characteristics per generator class ("
            << tasks << " tasks, " << machines << " machines)\n\n";
  if (run_opts.shard.count > 1) {
    std::cout << "(shard " << run_opts.shard.index << "/"
              << run_opts.shard.count << ": table covers this shard's cells "
              << "only — merge stores for the full grid)\n\n";
  }

  Table table({"connectivity", "heterogeneity", "ccr_target", "items",
               "measured_conn", "measured_het", "measured_ccr", "cp_lb",
               "serial_ub"});
  for (const StoreRow& row : store.sorted_rows()) {
    table.add_row(row.fields);
  }
  table.write_markdown(std::cout);
  std::cout << "\n(measured_conn = data items per task; measured_het = mean "
               "per-task CV of execution times)\n";

  if (opts.has("dump")) {
    WorkloadParams p;
    p.tasks = tasks;
    p.machines = machines;
    p.seed = seed;
    std::cout << "\n--- sample instance in sehc-workload v1 format ---\n";
    write_workload(std::cout, make_workload(p));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run);
}
