// Cross-module integration tests: the experiment harness driving SE/GA end
// to end, anytime curves, and a campaign over every registered scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/report.h"
#include "exp/anytime.h"
#include "exp/campaign.h"
#include "exp/figures.h"
#include "ga/ga.h"
#include "heuristics/scheduler.h"
#include "se/se.h"
#include "hc/metrics.h"
#include "sched/validate.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// Time-budgeted anytime capture through the generic driver (the shape the
/// deleted run_se/ga_anytime helpers had).
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

TEST(Anytime, SeCurveIsMonotoneNonIncreasing) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  p.seed = 1;
  const Workload w = make_workload(p);
  SeParams sp;
  sp.seed = 1;
  const auto curve = se_anytime(w, sp, 0.3);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].best, curve[i - 1].best + 1e-9);
    EXPECT_GE(curve[i].seconds, curve[i - 1].seconds - 1e-9);
  }
}

TEST(Anytime, GaCurveIsMonotoneNonIncreasing) {
  WorkloadParams p;
  p.tasks = 40;
  p.machines = 6;
  p.seed = 2;
  const Workload w = make_workload(p);
  GaParams gp;
  gp.seed = 2;
  gp.population = 20;
  const auto curve = ga_anytime(w, gp, 0.3);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].best, curve[i - 1].best + 1e-9);
  }
}

TEST(Anytime, ValueAtSamplesStepFunction) {
  const std::vector<AnytimePoint> curve{{0.1, 100.0}, {0.5, 60.0}, {1.0, 50.0}};
  EXPECT_TRUE(std::isinf(value_at(curve, 0.05)));
  EXPECT_DOUBLE_EQ(value_at(curve, 0.1), 100.0);
  EXPECT_DOUBLE_EQ(value_at(curve, 0.7), 60.0);
  EXPECT_DOUBLE_EQ(value_at(curve, 2.0), 50.0);
}

TEST(Anytime, TimeGridCoversBudget) {
  const auto grid = time_grid(2.0, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.5);
  EXPECT_DOUBLE_EQ(grid.back(), 2.0);
}

TEST(Runner, SuiteProducesOneRecordPerScheduler) {
  CampaignSpec spec;
  spec.name = "suite";
  WorkloadParams p;
  p.tasks = 20;
  p.machines = 4;
  p.seed = 3;
  spec.classes = {{"test", p}};
  spec.schedulers = scheduler_names();
  spec.repetitions = 1;
  spec.iterations = 10;
  spec.base_seed = 1;
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});

  const auto records = campaign_records(store);
  EXPECT_EQ(records.size(), spec.schedulers.size());
  for (const auto& r : records) {
    // With one repetition every scheduler runs on the class's pinned instance.
    EXPECT_EQ(r.workload_seed, p.seed) << r.scheduler;
    EXPECT_GT(r.makespan, 0.0) << r.scheduler;
    EXPECT_GE(r.makespan, r.lower_bound - 1e-9) << r.scheduler;
  }
}

TEST(Figures, BannerMentionsWorkloadAxes) {
  const Workload w = figure1_workload();
  std::ostringstream os;
  print_figure_banner(os, "Fig X", "test banner", w, "params-here");
  const std::string out = os.str();
  EXPECT_NE(out.find("Fig X"), std::string::npos);
  EXPECT_NE(out.find("params-here"), std::string::npos);
  EXPECT_NE(out.find("connectivity="), std::string::npos);
  EXPECT_NE(out.find("heterogeneity="), std::string::npos);
  EXPECT_NE(out.find("ccr="), std::string::npos);
}

TEST(Figures, DownsampleKeepsEndpoints) {
  std::vector<SeIterationStats> trace(100);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].iteration = i;
  const auto ds = downsample(trace, 10);
  ASSERT_EQ(ds.size(), 10u);
  EXPECT_EQ(ds.front().iteration, 0u);
  EXPECT_EQ(ds.back().iteration, 99u);
}

TEST(Figures, DownsampleNoopWhenSmall) {
  std::vector<SeIterationStats> trace(5);
  EXPECT_EQ(downsample(trace, 10).size(), 5u);
}

TEST(Figures, SeTraceCsvShape) {
  std::vector<SeIterationStats> trace(3);
  for (std::size_t i = 0; i < 3; ++i) {
    trace[i].iteration = i;
    trace[i].num_selected = 10 - i;
    trace[i].current_makespan = 100.0 - static_cast<double>(i);
    trace[i].best_makespan = 100.0 - static_cast<double>(i);
  }
  std::ostringstream os;
  write_se_trace_csv(os, trace, 100);
  const std::string out = os.str();
  EXPECT_NE(out.find("iteration,selected,moved,current_makespan,best_makespan"),
            std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);  // header + 3 rows
}

TEST(Figures, AnytimeCsvHandlesMissingEarlyValues) {
  // A Figure 5-7 store whose SE curve has no solution yet at the first
  // sample: the curve table prints "-" there, and numbers from then on.
  CampaignSpec spec = make_builtin_campaign("fig5-anytime");
  spec.time_budget_seconds = 1.0;
  spec.curve_points = 2;  // grid {0.5, 1.0}
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRecord se;
  se.cell = 0;
  se.class_name = "fig5-anytime";
  se.scheduler = "SE";
  se.makespan = 90.0;
  se.curve = {std::numeric_limits<double>::infinity(), 90.0};
  CampaignRecord ga = se;
  ga.cell = 1;
  ga.scheduler = "GA";
  ga.makespan = 120.0;
  ga.curve = {120.0, 120.0};
  store.append(se.to_row());
  store.append(ga.to_row());

  const Table table = curve_table(build_dataset(store));
  ASSERT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cell(0, 1), "0.500");
  EXPECT_EQ(table.cell(0, 2), "-");
  EXPECT_EQ(table.cell(0, 3), "120.00");
  EXPECT_EQ(table.cell(1, 1), "1.000");
  EXPECT_EQ(table.cell(1, 2), "90.00");
  EXPECT_EQ(table.cell(1, 3), "120.00");
}

TEST(EndToEnd, SeBeatsRandomInitOnPaperClassWorkload) {
  const Workload w = make_workload(paper_fig5_high_connectivity(5));
  SeParams p;
  p.seed = 5;
  SeEngine engine(w, p);
  const SearchResult r = run_search(engine, Budget::steps(15));
  EXPECT_TRUE(validate_schedule(w, r.schedule).empty());
  ASSERT_FALSE(engine.trace().empty());
  EXPECT_LE(r.best_makespan, engine.trace().front().current_makespan);
}

}  // namespace
}  // namespace sehc
