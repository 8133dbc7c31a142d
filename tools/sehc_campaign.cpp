// Campaign CLI: run, shard, resume, merge and tabulate persisted experiment
// sweeps (see README "Campaigns").
//
//   sehc_campaign list
//   sehc_campaign show  --spec NAME [overrides]
//   sehc_campaign run   --spec NAME --store PATH [--shard I/N] [--threads T]
//                       [--max-cells N] [--fresh] [--merged-out PATH]
//                       [--bench-json PATH] [--progress]
//                       [--cell-retries N] [--cell-timeout S]
//                       [--retry-backoff-ms M] [--strict] [--quarantine P]
//                       [--fault-plan SPEC] [overrides]
//   sehc_campaign merge --out PATH STORE...
//   sehc_campaign table --store PATH [--format md|csv]
//
// Overrides (run/show): --seeds R --iters I --evals N --curve-points P
//                       --base-seed B --tasks K --machines L
//                       --budget SECONDS
//
// A shard writes one store; killing it loses at most the record being
// written, and rerunning the same command resumes (cells already in the
// store are skipped). `merge` combines shard stores into the canonical
// byte-stable table; for an iteration-budget spec it is byte-identical to
// the canonical output of one uninterrupted single-process run.
//
// Failure isolation (README "Robustness"): a throwing cell is retried
// --cell-retries times with exponential backoff, then quarantined to
// `<store>.failed.csv` while the rest of the shard keeps running; the run
// exits 3 when any cell was quarantined (rerunning the command retries
// exactly those cells). --cell-timeout arms a per-cell watchdog; --strict
// restores fail-fast; --fault-plan injects deterministic chaos (tests/CI).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.h"
#include "core/error.h"
#include "core/options.h"
#include "core/table.h"
#include "core/timer.h"
#include "exp/campaign.h"
#include "obs/metrics_sidecar.h"

namespace {

using namespace sehc;

constexpr std::string_view kUsage =
    "usage: sehc_campaign <list|show|run|merge|table> [options]\n"
    "  list                      list built-in campaign specs\n"
    "  show  --spec NAME         print a spec, its hash and cell count\n"
    "  run   --spec NAME --store PATH [--shard I/N] [--threads T]\n"
    "        [--max-cells N] [--fresh] [--merged-out PATH]\n"
    "        [--bench-json PATH] [--progress]\n"
    "        [--cell-retries N] [--cell-timeout S]\n"
    "        [--retry-backoff-ms M] [--strict] [--quarantine PATH]\n"
    "        [--fault-plan SPEC]   (exit 3 = cells quarantined)\n"
    "  merge --out PATH STORE... merge shard stores (canonical output)\n"
    "  table --store PATH [--format md|csv]\n"
    "                            aggregate tables from a store\n"
    "  spec overrides (run/show): --seeds --iters --evals\n"
    "        --curve-points --base-seed --tasks --machines --budget\n";

/// Applies the CLI's spec overrides. The spec hash covers every overridden
/// field, so a store produced with different overrides never mixes records.
CampaignSpec spec_from_options(const Options& opts) {
  CampaignSpec spec = make_builtin_campaign(opts.get("spec", ""));
  if (opts.has("seeds")) {
    spec.repetitions = static_cast<std::size_t>(opts.get_int("seeds", 3));
  }
  if (opts.has("iters")) {
    spec.iterations = static_cast<std::size_t>(opts.get_int("iters", 150));
  }
  if (opts.has("evals")) {
    spec.eval_budget = static_cast<std::size_t>(opts.get_int("evals", 0));
  }
  if (opts.has("curve-points")) {
    spec.curve_points =
        static_cast<std::size_t>(opts.get_int("curve-points", 0));
  }
  if (opts.has("base-seed")) spec.base_seed = opts.get_seed("base-seed", 42);
  if (opts.has("budget")) {
    spec.time_budget_seconds = opts.get_double("budget", 0.0);
  }
  if (opts.has("tasks") || opts.has("machines")) {
    for (CampaignClass& c : spec.classes) {
      c.params.tasks = static_cast<std::size_t>(
          opts.get_int("tasks", static_cast<std::int64_t>(c.params.tasks)));
      c.params.machines = static_cast<std::size_t>(opts.get_int(
          "machines", static_cast<std::int64_t>(c.params.machines)));
    }
  }
  spec.validate();
  return spec;
}

int cmd_list() {
  std::cout << "built-in campaign specs:\n";
  for (const std::string& name : builtin_campaign_names()) {
    const CampaignSpec spec = make_builtin_campaign(name);
    std::cout << "  " << name << "  (" << spec.grid().num_cells()
              << " cells: " << spec.classes.size() << " classes x "
              << spec.repetitions << " seeds x " << spec.schedulers.size()
              << " schedulers)\n";
  }
  return 0;
}

int cmd_show(const Options& opts) {
  const CampaignSpec spec = spec_from_options(opts);
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(spec.hash()));
  std::cout << spec.canonical_string();
  std::cout << "hash=" << hash_hex << '\n';
  std::cout << "cells=" << spec.grid().num_cells() << '\n';
  return 0;
}

int cmd_run(const Options& opts) {
  const CampaignSpec spec = spec_from_options(opts);
  const std::string store_path = opts.get("store", "");
  SEHC_CHECK(!store_path.empty(), "run: --store PATH is required");
  if (opts.has("fresh")) {
    std::remove(store_path.c_str());
    // The metrics sidecar carries the same spec hash as the store, so a
    // stale one would otherwise be resumed alongside the fresh store.
    std::remove(default_metrics_path(store_path).c_str());
  }

  ResultStore store = ResultStore::open(store_path, spec.store_schema());

  CampaignRunOptions run_opts;
  run_opts.threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  run_opts.shard = ShardPlan::parse(opts.get("shard", "0/1"));
  run_opts.max_cells =
      static_cast<std::size_t>(opts.get_int("max-cells", 0));
  if (opts.has("progress")) {
    // Rate and ETA read this run's own clock: volatile, so stderr only.
    run_opts.progress = [timer = WallTimer()](std::size_t done,
                                              std::size_t total) {
      const double rate = static_cast<double>(done) / timer.seconds();
      std::cerr << "\r" << done << "/" << total << " cells, "
                << format_fixed(rate, 1) << " cells/s, ETA "
                << format_fixed(static_cast<double>(total - done) / rate, 1)
                << " s   " << std::flush;
      if (done == total) std::cerr << '\n';
    };
  }
  run_opts.cell_retries =
      static_cast<std::size_t>(opts.get_int("cell-retries", 0));
  run_opts.cell_timeout_seconds = opts.get_double("cell-timeout", 0.0);
  run_opts.retry_backoff_ms =
      static_cast<std::size_t>(opts.get_int("retry-backoff-ms", 50));
  run_opts.strict = opts.has("strict");
  run_opts.quarantine_path = opts.get("quarantine", "");
  if (opts.has("fault-plan")) {
    run_opts.fault_plan = FaultPlan::parse(opts.get("fault-plan", ""));
    std::cout << "fault plan: " << run_opts.fault_plan.describe() << '\n';
  }

  const CampaignRunSummary summary = run_campaign(spec, store, run_opts);
  const double rate = summary.seconds > 0.0
                          ? static_cast<double>(summary.executed_cells) /
                                summary.seconds
                          : 0.0;
  std::cout << "campaign " << spec.name << ": " << summary.total_cells
            << " cells total, shard " << run_opts.shard.index << "/"
            << run_opts.shard.count << " owns " << summary.shard_cells
            << ", resumed " << summary.resumed_cells << ", executed "
            << summary.executed_cells << " in "
            << format_fixed(summary.seconds, 2) << " s ("
            << format_fixed(rate, 1) << " cells/s)\n";
  if (summary.retried_cells > 0) {
    std::cout << "retried: " << summary.retried_cells
              << " cell(s) succeeded after a failed attempt\n";
  }
  if (summary.failed_cells > 0) {
    std::cout << "FAILED: " << summary.failed_cells
              << " cell(s) quarantined after "
              << (run_opts.cell_retries + 1) << " attempt(s) each";
    if (!summary.quarantine_path.empty()) {
      std::cout << " -> " << summary.quarantine_path;
    }
    std::cout << '\n';
    for (const QuarantineRecord& q : summary.quarantined) {
      std::cout << "  cell " << q.cell << " (" << q.coords << ") "
                << q.label << ": " << q.error << '\n';
    }
  }
  std::cout << "store: " << store_path << " (" << store.size()
            << " records)\n";
  if (!summary.metrics_path.empty()) {
    std::cout << "metrics: " << summary.metrics_path << " ("
              << summary.metrics.size() << " rows)\n";
  }

  if (opts.has("merged-out")) {
    const std::string out_path = opts.get("merged-out", "");
    std::ofstream os(out_path, std::ios::binary);
    SEHC_CHECK(static_cast<bool>(os), "run: cannot write " + out_path);
    store.write_canonical(os);
    std::cout << "canonical table: " << out_path << '\n';
    // Canonical (ms-less) metrics next to the canonical table: this file
    // is byte-identical however the run was sharded or threaded.
    if (!summary.metrics.empty()) {
      const std::string metrics_out = default_metrics_path(out_path);
      std::ofstream ms(metrics_out, std::ios::binary);
      SEHC_CHECK(static_cast<bool>(ms), "run: cannot write " + metrics_out);
      write_metrics_rows(ms, summary.metrics, spec.hash(), false);
      std::cout << "canonical metrics: " << metrics_out << '\n';
    }
  }
  if (opts.has("bench-json")) {
    // Wall-time tracking next to BENCH_hotpath.json: cells/s here divided
    // by the hot path's trials/s gives trials per cell, the quantity the
    // perf baseline predicts.
    const std::string out_path = opts.get("bench-json", "");
    std::ofstream os(out_path, std::ios::binary);
    SEHC_CHECK(static_cast<bool>(os), "run: cannot write " + out_path);
    os << "{\n"
       << "  \"bench\": \"campaign\",\n"
       << "  \"spec\": \"" << spec.name << "\",\n"
       << "  \"unit\": \"cells_per_sec\",\n"
       << "  \"total_cells\": " << summary.total_cells << ",\n"
       << "  \"shard_cells\": " << summary.shard_cells << ",\n"
       << "  \"resumed_cells\": " << summary.resumed_cells << ",\n"
       << "  \"executed_cells\": " << summary.executed_cells << ",\n"
       << "  \"threads\": " << run_opts.threads << ",\n"
       << "  \"seconds\": " << format_fixed(summary.seconds, 4) << ",\n"
       << "  \"cells_per_sec\": " << format_fixed(rate, 2) << "\n"
       << "}\n";
    std::cout << "bench json: " << out_path << '\n';
  }
  // Exit 3 (documented): records were persisted for every healthy cell but
  // some cells were quarantined — rerunning the same command retries them.
  return summary.failed_cells > 0 ? 3 : 0;
}

int cmd_merge(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") throw UsageError::help_request();
    if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      if (arg == "--out") {
        if (i + 1 >= argc) throw UsageError("merge: --out needs a path");
        out_path = argv[++i];
      } else {
        out_path = arg.substr(6);
      }
    } else {
      if (arg.rfind("--", 0) == 0) {
        throw UsageError("merge: unknown option " + arg);
      }
      inputs.push_back(arg);
    }
  }
  if (out_path.empty()) throw UsageError("merge: --out PATH is required");
  if (inputs.empty()) throw UsageError("merge: no input stores");

  const ResultStore merged = ResultStore::merge(inputs);
  std::ofstream os(out_path, std::ios::binary);
  SEHC_CHECK(static_cast<bool>(os), "merge: cannot write " + out_path);
  merged.write_canonical(os);
  std::cout << "merged " << inputs.size() << " store(s), " << merged.size()
            << " records -> " << out_path << '\n';

  // Merge the shards' metrics sidecars the same way (keep-last dedup by
  // (cell, kind, name)); the canonical output matches what a single
  // unsharded run writes next to its --merged-out table.
  std::vector<MetricsRow> metrics;
  for (const std::string& input : inputs) {
    const std::vector<MetricsRow> rows =
        read_metrics_sidecar(default_metrics_path(input));
    metrics.insert(metrics.end(), rows.begin(), rows.end());
  }
  if (!metrics.empty()) {
    const std::string metrics_out = default_metrics_path(out_path);
    std::ofstream ms(metrics_out, std::ios::binary);
    SEHC_CHECK(static_cast<bool>(ms), "merge: cannot write " + metrics_out);
    write_metrics_rows(ms, merge_metrics_rows(std::move(metrics)),
                       merged.schema().spec_hash, false);
    std::cout << "merged metrics: " << metrics_out << '\n';
  }
  return 0;
}

/// Aggregate tables, rendered by the analysis subsystem's report layer
/// (sehc_report gives the full report; this stays the quick look).
int cmd_table(const Options& opts) {
  const std::string store_path = opts.get("store", "");
  SEHC_CHECK(!store_path.empty(), "table: --store PATH is required");
  const ReportFormat format = parse_report_format(opts.get("format", "md"));
  const ResultStore store = ResultStore::load(store_path);
  const CampaignDataset dataset = build_dataset(store);
  const ReportOptions report_opts;

  if (format == ReportFormat::kMarkdown) {
    std::cout << "spec: " << dataset.schema.spec_line << '\n';
    std::cout << "records: " << store.size() << "\n\n";
  } else {
    std::cout << "# spec: " << dataset.schema.spec_line << '\n';
    std::cout << "# records: " << store.size() << '\n';
  }
  write_table(std::cout, summary_table(dataset, report_opts), format);

  if (has_paired_records(dataset, report_opts.challenger,
                         report_opts.baseline)) {
    std::cout << "\n";
    write_table(std::cout, pair_comparison_table(dataset, report_opts),
                format);
    if (format == ReportFormat::kMarkdown) {
      std::cout << "\n(SE/GA < 1 means SE found shorter schedules in the "
                   "budget; sehc_report adds crossings and profiles)\n";
    }
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) throw UsageError("missing command");
  const std::string command = argv[1];
  if (command == "--help") throw UsageError::help_request();
  if (command == "list") return cmd_list();
  if (command == "merge") return cmd_merge(argc, argv);

  const std::vector<std::string> known{
      "spec",      "store",     "shard",        "threads",
      "max-cells", "fresh",     "merged-out",   "bench-json",
      "progress",  "seeds",     "iters",        "evals",
      "curve-points", "base-seed", "tasks",     "machines",
      "budget",    "out",       "format",       "cell-retries",
      "cell-timeout", "retry-backoff-ms", "strict", "quarantine",
      "fault-plan"};
  const Options opts(argc - 1, argv + 1, known);
  if (command == "show") return cmd_show(opts);
  if (command == "run") return cmd_run(opts);
  if (command == "table") return cmd_table(opts);
  throw UsageError("unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run, kUsage);
}
