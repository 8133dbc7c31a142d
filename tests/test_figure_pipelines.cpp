// Miniature end-to-end versions of each figure bench: the same pipeline
// (paper-class workload -> engine(s) -> series/summaries) at test scale, so
// a regression in any layer the benches depend on fails fast in CI rather
// than only in a long bench run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/report.h"
#include "exp/anytime.h"
#include "exp/campaign.h"
#include "ga/ga.h"
#include "heuristics/scheduler.h"
#include "sched/validate.h"
#include "se/se.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// Time-budgeted anytime capture through the generic driver.
std::vector<AnytimePoint> se_anytime(const Workload& w, SeParams sp,
                                     double budget_seconds) {
  sp.record_trace = false;
  SeEngine engine(w, sp);
  return run_anytime(engine, Budget::seconds(budget_seconds));
}

std::vector<AnytimePoint> ga_anytime(const Workload& w, GaParams gp,
                                     double budget_seconds) {
  gp.record_trace = false;
  GaEngine engine(w, gp);
  return run_anytime(engine, Budget::seconds(budget_seconds));
}

TEST(FigurePipelines, Fig3MiniConvergence) {
  const Workload w = make_workload(paper_large_high_connectivity(1));
  SeParams p;
  p.seed = 1;
  p.bias = -0.1;
  SeEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(40));
  const std::vector<SeIterationStats>& trace = engine.trace();
  ASSERT_EQ(trace.size(), 40u);
  // Selected count must trend down and schedule length must improve.
  EXPECT_GT(trace.front().num_selected, trace.back().num_selected);
  EXPECT_LT(r.best_makespan, trace.front().current_makespan);
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty());
}

TEST(FigurePipelines, Fig4MiniYSweep) {
  const Workload w = make_workload(paper_large_high_heterogeneity(2));
  double prev_combos = 0.0;
  for (std::size_t y : {2u, 6u, 0u}) {  // increasing effective Y
    SeParams p;
    p.seed = 2;
    p.bias = -0.1;
    p.y_limit = y;
    SeEngine engine(w, p);
    const SearchResult r = run_search(engine, Budget::steps(10));
    EXPECT_TRUE(validate_schedule(w, r.schedule).empty()) << "Y=" << y;
    // Proxy for runtime monotonicity that is immune to timer noise:
    // the number of placements changed cannot shrink the candidate space.
    double combos = 0.0;
    for (const auto& row : engine.trace())
      combos += static_cast<double>(row.num_selected);
    EXPECT_GT(combos, 0.0);
    prev_combos = combos;
  }
  (void)prev_combos;
}

TEST(FigurePipelines, Fig5MiniAnytimeComparison) {
  const Workload w = make_workload(paper_fig5_high_connectivity(3));
  SeParams sp;
  sp.seed = 3;
  sp.bias = -0.1;
  GaParams gp;
  gp.seed = 3;
  const auto se = se_anytime(w, sp, 0.25);
  const auto ga = ga_anytime(w, gp, 0.25);
  ASSERT_FALSE(se.empty());
  ASSERT_FALSE(ga.empty());
  // Both curves terminate within (a lenient multiple of) the budget and
  // yield finite final values.
  EXPECT_LT(se.back().seconds, 2.0);
  EXPECT_LT(ga.back().seconds, 2.0);
  EXPECT_GT(value_at(se, 0.25), 0.0);
  EXPECT_GT(value_at(ga, 0.25), 0.0);
}

TEST(FigurePipelines, Fig7MiniLowClassStillValid) {
  const Workload w = make_workload(paper_fig7_low_everything(4));
  SeParams sp;
  sp.seed = 4;
  sp.bias = -0.1;
  const auto se = se_anytime(w, sp, 0.2);
  const double final = value_at(se, 10.0);  // beyond budget -> last value
  EXPECT_GT(final, 0.0);
  EXPECT_FALSE(std::isinf(final));
}

TEST(FigurePipelines, ClassGridMiniCell) {
  // One cell of the paper-class-grid comparison end to end.
  WorkloadParams wp;
  wp.tasks = 40;
  wp.machines = 8;
  wp.connectivity = Level::kHigh;
  wp.heterogeneity = Level::kHigh;
  wp.ccr = 1.0;
  wp.seed = 5;
  const Workload w = make_workload(wp);
  SeParams sp;
  sp.seed = 5;
  sp.bias = -0.1;
  GaParams gp;
  gp.seed = 5;
  const double se = value_at(se_anytime(w, sp, 0.2), 0.2);
  const double ga = value_at(ga_anytime(w, gp, 0.2), 0.2);
  EXPECT_GT(se, 0.0);
  EXPECT_GT(ga, 0.0);
  // Not asserting a winner (budget too small for stability) — only that
  // the comparison machinery yields comparable, validated numbers.
}

TEST(FigurePipelines, BaselineTableMini) {
  // The baselines spec at test scale: a campaign over every registered
  // scheduler, rendered through the summary and profile tables.
  CampaignSpec spec;
  spec.name = "baselines-mini";
  WorkloadParams wp;
  wp.tasks = 20;
  wp.machines = 4;
  wp.seed = 6;
  spec.classes = {{"mini", wp}};
  spec.schedulers = scheduler_names();
  spec.repetitions = 1;
  spec.iterations = 10;
  spec.base_seed = 6;
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions run_opts;
  run_opts.strict = true;
  run_campaign(spec, store, run_opts);

  const auto records = campaign_records(store);
  EXPECT_EQ(records.size(), spec.schedulers.size());
  for (const CampaignRecord& r : records) {
    EXPECT_GT(r.makespan, 0.0) << r.scheduler;
    EXPECT_GE(r.makespan, r.lower_bound - 1e-9) << r.scheduler;
  }

  const CampaignDataset dataset = build_dataset(store);
  const Table t = summary_table(dataset, ReportOptions{});
  EXPECT_EQ(t.rows(), spec.schedulers.size());
  // Every scheduler appears exactly once.
  std::vector<std::string> names;
  for (std::size_t i = 0; i < t.rows(); ++i) names.push_back(t.cell(i, 1));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(profile_table(dataset, ReportOptions{}).rows(),
            spec.schedulers.size());
}

}  // namespace
}  // namespace sehc
