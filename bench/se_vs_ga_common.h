// Shared driver for the Figure 5/6/7 benches: run SE and GA on the same
// workload under the same wall-clock budget and print the anytime
// comparison (best schedule length vs real time), as the paper does.
//
// The comparison executes as a 2-cell campaign on the heuristic axis with
// per-cell anytime-curve capture; --threads 2 runs the heuristics
// concurrently and --store PATH persists the records (a rerun resumes
// instead of recomputing — note wall-clock cells are only deterministic
// per completed record, see src/exp/campaign.h). The default stays serial
// because anytime curves measure wall time, and co-scheduling distorts
// both curves whenever the machine lacks a spare core per heuristic.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "core/error.h"
#include "core/options.h"
#include "core/table.h"
#include "exp/anytime.h"
#include "exp/campaign.h"
#include "exp/figures.h"
#include "workload/generator.h"

namespace sehc::bench {

struct SeVsGaConfig {
  std::string figure_id;
  std::string description;
  WorkloadParams workload;
  double budget_seconds = 2.0;
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  std::string store_path;  // empty = in-memory
};

inline int run_se_vs_ga(const SeVsGaConfig& cfg) {
  const Workload w = make_workload(cfg.workload);
  print_figure_banner(std::cout, cfg.figure_id, cfg.description, w,
                      cfg.workload.describe());
  std::cout << "time budget per heuristic: "
            << format_fixed(cfg.budget_seconds, 2) << " s\n\n";

  // One configuration across Figures 5-7 (no per-figure tuning): the
  // campaign SE cell uses all machines as allocation candidates and
  // selection bias -0.1. The paper suggests non-negative bias for large
  // problems to cap iteration cost; our checkpointed trial evaluation
  // makes thorough selection affordable, and B = -0.1 dominates B in
  // [0, 0.1] on every class we measured (see bench/ablation_bias).
  constexpr std::size_t kCurvePoints = 20;
  CampaignSpec spec;
  spec.name = cfg.figure_id;
  spec.classes.push_back({cfg.figure_id, cfg.workload});
  spec.schedulers = {"SE", "GA"};
  spec.repetitions = 1;  // keeps the class's pinned instance seed
  spec.iterations = 0;
  spec.time_budget_seconds = cfg.budget_seconds;
  spec.curve_points = kCurvePoints;
  spec.base_seed = cfg.seed;

  ResultStore store =
      cfg.store_path.empty()
          ? ResultStore::in_memory(spec.store_schema())
          : ResultStore::open(cfg.store_path, spec.store_schema());
  CampaignRunOptions run_opts;
  run_opts.threads = cfg.threads;
  run_campaign(spec, store, run_opts);

  const std::vector<CampaignRecord> records = campaign_records(store);
  SEHC_CHECK(records.size() == 2, "run_se_vs_ga: expected 2 records");
  const CampaignRecord& se_rec =
      records[0].scheduler == "SE" ? records[0] : records[1];
  const CampaignRecord& ga_rec =
      records[0].scheduler == "GA" ? records[0] : records[1];

  // Rebuild step curves from the persisted grid samples; the grid points
  // are exactly the sampling instants, so the printed series matches an
  // in-process capture.
  const std::vector<double> grid = time_grid(cfg.budget_seconds, kCurvePoints);
  auto to_curve = [&](const std::vector<double>& samples) {
    std::vector<AnytimePoint> curve;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      curve.push_back({grid[i], samples[i]});
    }
    return curve;
  };
  const auto se_curve = to_curve(se_rec.curve);
  const auto ga_curve = to_curve(ga_rec.curve);

  write_anytime_csv(std::cout, se_curve, ga_curve, grid);

  // Summary + crossing via the analysis subsystem (same code path as
  // sehc_report): when does SE durably overtake GA, and the head-to-head.
  const CampaignDataset dataset = build_dataset(store);
  const ReportOptions report_opts;
  std::cout << "\n";
  write_table(std::cout, crossing_table(dataset, report_opts),
              ReportFormat::kMarkdown);
  std::cout << "\n";
  write_table(std::cout, pair_comparison_table(dataset, report_opts),
              ReportFormat::kMarkdown);

  const double se_final = value_at(se_curve, cfg.budget_seconds);
  const double ga_final = value_at(ga_curve, cfg.budget_seconds);
  const char* winner = se_final < ga_final   ? "SE"
                       : ga_final < se_final ? "GA"
                                             : "tie";
  std::cout << "final winner: " << winner
            << "  (SE/GA ratio=" << format_fixed(se_final / ga_final, 3)
            << ")\n";
  return 0;
}

/// Standard CLI: --budget seconds, --seed, --threads, --store; budget is
/// scaled by SEHC_SCALE.
inline SeVsGaConfig parse_config(int argc, char** argv, std::string figure_id,
                                 std::string description,
                                 WorkloadParams (*factory)(std::uint64_t),
                                 double default_budget) {
  const Options opts(argc, argv, {"budget", "seed", "threads", "store"});
  SeVsGaConfig cfg;
  cfg.seed = opts.get_seed("seed", 42);
  cfg.figure_id = std::move(figure_id);
  cfg.description = std::move(description);
  cfg.workload = factory(cfg.seed);
  cfg.budget_seconds =
      opts.get_double("budget", default_budget * scale_from_env());
  cfg.threads = static_cast<std::size_t>(opts.get_int("threads", 1));
  cfg.store_path = opts.get("store", "");
  return cfg;
}

}  // namespace sehc::bench
