#include "analysis/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/error.h"
#include "exp/campaign.h"

namespace sehc {
namespace {

/// Small SE/GA campaign with curve capture: 2 classes x 3 reps x 2
/// schedulers = 12 cells, 6 curve samples on the iteration grid.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "report-tiny";
  CampaignClass a;
  a.name = "low";
  a.params.tasks = 16;
  a.params.machines = 4;
  a.params.connectivity = Level::kLow;
  CampaignClass b;
  b.name = "high";
  b.params.tasks = 16;
  b.params.machines = 4;
  b.params.connectivity = Level::kHigh;
  spec.classes = {a, b};
  spec.schedulers = {"SE", "GA"};
  spec.repetitions = 3;
  spec.iterations = 6;
  spec.curve_points = 6;
  return spec;
}

ResultStore run_in_memory(const CampaignSpec& spec, std::size_t threads) {
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions opts;
  opts.threads = threads;
  run_campaign(spec, store, opts);
  return store;
}

std::string full_report(const ResultStore& store, ReportFormat format) {
  std::ostringstream os;
  write_report(os, build_dataset(store), ReportOptions{}, format);
  return os.str();
}

std::string temp_store_path(const std::string& tag) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("sehc_report_test_" + tag + ".csv"))
                               .string();
  std::remove(path.c_str());
  return path;
}

TEST(Dataset, GroupsRecordsAndRebuildsTheIterationGrid) {
  const ResultStore store = run_in_memory(tiny_spec(), 1);
  const CampaignDataset ds = build_dataset(store);
  EXPECT_EQ(ds.classes, (std::vector<std::string>{"low", "high"}));
  EXPECT_EQ(ds.schedulers, (std::vector<std::string>{"SE", "GA"}));
  EXPECT_EQ(ds.groups.size(), 4u);
  EXPECT_EQ(ds.curve_points, 6u);
  EXPECT_EQ(ds.axis, "iterations");
  // time_grid(6, 6) = [1..6]: exactly the campaign cell's sampling grid.
  EXPECT_EQ(ds.grid, (std::vector<double>{1, 2, 3, 4, 5, 6}));

  const CampaignGroup* g = ds.find_group("low", "GA");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->reps, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(g->makespans.size(), 3u);
  const CurveBundle bundle = ds.bundle(*g);
  EXPECT_EQ(bundle.rows.size(), 3u);
  EXPECT_EQ(ds.find_group("low", "HEFT"), nullptr);
}

TEST(Dataset, EmptyStoreReportsEveryExpectedCellMissing) {
  // A store cut inside its first record holds none: the dataset has no
  // groups, but its grid comes from the spec line, and the full report
  // says that every expected record is missing.
  const ResultStore store =
      ResultStore::in_memory(tiny_spec().store_schema());
  const CampaignDataset ds = build_dataset(store);
  EXPECT_TRUE(ds.groups.empty());
  EXPECT_TRUE(ds.classes.empty());
  EXPECT_EQ(ds.expected_cells(), 12u);
  EXPECT_EQ(ds.curve_points, 6u);
  EXPECT_EQ(ds.grid, (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(profile_table(ds, ReportOptions{}).rows(), 0u);
  for (const ReportFormat format : {ReportFormat::kMarkdown,
                                    ReportFormat::kCsv}) {
    const std::string report = full_report(store, format);
    EXPECT_NE(report.find("12 of 12 expected records are missing"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("2 of 2 classes have no records at all"),
              std::string::npos)
        << report;
  }
}

TEST(Report, ByteIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = tiny_spec();
  const ResultStore serial = run_in_memory(spec, 1);
  const ResultStore parallel = run_in_memory(spec, 8);
  EXPECT_EQ(full_report(serial, ReportFormat::kMarkdown),
            full_report(parallel, ReportFormat::kMarkdown));
  EXPECT_EQ(full_report(serial, ReportFormat::kCsv),
            full_report(parallel, ReportFormat::kCsv));
}

TEST(Report, ByteIdenticalAcrossShardCompositions) {
  const CampaignSpec spec = tiny_spec();
  const std::string p0 = temp_store_path("shard0");
  const std::string p1 = temp_store_path("shard1");
  {
    ResultStore s0 = ResultStore::open(p0, spec.store_schema());
    CampaignRunOptions opts;
    opts.shard = {0, 2};
    opts.threads = 2;
    run_campaign(spec, s0, opts);
    ResultStore s1 = ResultStore::open(p1, spec.store_schema());
    opts.shard = {1, 2};
    opts.threads = 3;
    run_campaign(spec, s1, opts);
  }
  const ResultStore merged = ResultStore::merge({p0, p1});
  const ResultStore single = run_in_memory(spec, 1);
  EXPECT_EQ(full_report(merged, ReportFormat::kMarkdown),
            full_report(single, ReportFormat::kMarkdown));
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(Report, SummaryCarriesBootstrapIntervals) {
  const ResultStore store = run_in_memory(tiny_spec(), 2);
  const CampaignDataset ds = build_dataset(store);
  const Table table = summary_table(ds, ReportOptions{});
  EXPECT_EQ(table.rows(), 4u);  // 2 classes x 2 schedulers
  for (std::size_t r = 0; r < table.rows(); ++r) {
    const double mean = std::stod(table.cell(r, 3));
    const double lo = std::stod(table.cell(r, 4));
    const double hi = std::stod(table.cell(r, 5));
    EXPECT_LE(lo, mean);
    EXPECT_GE(hi, mean);
    EXPECT_GE(std::stod(table.cell(r, 6)), 1.0);  // makespan >= lower bound
  }
}

TEST(Report, SingleSeedSummaryIsDegenerate) {
  CampaignSpec spec = tiny_spec();
  spec.repetitions = 1;
  const ResultStore store = run_in_memory(spec, 1);
  const Table table = summary_table(build_dataset(store), ReportOptions{});
  for (std::size_t r = 0; r < table.rows(); ++r) {
    EXPECT_EQ(table.cell(r, 2), "1");
    EXPECT_EQ(table.cell(r, 3), table.cell(r, 4));  // mean == ci_lo
    EXPECT_EQ(table.cell(r, 3), table.cell(r, 5));  // mean == ci_hi
  }
}

TEST(Report, CrossingTableNeedsCurves) {
  CampaignSpec spec = tiny_spec();
  spec.curve_points = 0;
  const ResultStore store = run_in_memory(spec, 1);
  const CampaignDataset ds = build_dataset(store);
  EXPECT_FALSE(ds.has_curves());
  EXPECT_THROW(crossing_table(ds, ReportOptions{}), Error);
  // The full report degrades to a note instead of failing.
  const std::string report = full_report(store, ReportFormat::kMarkdown);
  EXPECT_NE(report.find("no anytime curves"), std::string::npos);
}

TEST(Report, CrossingTableHasOneRowPerClass) {
  const ResultStore store = run_in_memory(tiny_spec(), 1);
  const Table table =
      crossing_table(build_dataset(store), ReportOptions{});
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cell(0, 0), "low");
  EXPECT_EQ(table.cell(1, 0), "high");
}

TEST(Report, CurveTableIsTheMeanCurvePerScheduler) {
  const ResultStore store = run_in_memory(tiny_spec(), 1);
  const CampaignDataset ds = build_dataset(store);
  const Table table = curve_table(ds);
  ASSERT_EQ(table.rows(), ds.classes.size() * ds.grid.size());  // 2 x 6
  std::ostringstream csv;
  write_table(csv, table, ReportFormat::kCsv);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "class,iterations,SE,GA");
  for (std::size_t c = 0; c < ds.classes.size(); ++c) {
    for (std::size_t s = 0; s < ds.schedulers.size(); ++s) {
      const std::vector<double> mean = mean_curve(
          ds.bundle(*ds.find_group(ds.classes[c], ds.schedulers[s])));
      for (std::size_t i = 0; i < ds.grid.size(); ++i) {
        const std::size_t row = c * ds.grid.size() + i;
        EXPECT_EQ(table.cell(row, 0), ds.classes[c]);
        EXPECT_EQ(table.cell(row, 1), format_fixed(ds.grid[i], 0));
        EXPECT_EQ(table.cell(row, 2 + s), format_fixed(mean[i], 2));
      }
    }
  }

  CampaignSpec no_curves = tiny_spec();
  no_curves.curve_points = 0;
  EXPECT_THROW(curve_table(build_dataset(run_in_memory(no_curves, 1))),
               Error);
}

TEST(Report, PairComparisonRequiresThePair) {
  const ResultStore store = run_in_memory(tiny_spec(), 1);
  const CampaignDataset ds = build_dataset(store);
  ReportOptions opts;
  opts.baseline = "HEFT";  // not in the store
  EXPECT_THROW(pair_comparison_table(ds, opts), Error);
  // write_report degrades to a note.
  std::ostringstream os;
  write_report(os, ds, opts, ReportFormat::kMarkdown);
  EXPECT_NE(os.str().find("no paired SE and HEFT records"),
            std::string::npos);
}

TEST(Report, ProfileFractionsReachOne) {
  const ResultStore store = run_in_memory(tiny_spec(), 1);
  ReportOptions opts;
  opts.profile_taus = {1.0, 1000.0};
  const Table table = profile_table(build_dataset(store), opts);
  ASSERT_EQ(table.rows(), 2u);  // SE, GA
  // Within tau = 1000 every solver covers every problem.
  EXPECT_EQ(table.cell(0, 3), "1.000");
  EXPECT_EQ(table.cell(1, 3), "1.000");
  // At tau = 1 the winners' fractions sum to >= 1 (ties count twice).
  const double f0 = std::stod(table.cell(0, 2));
  const double f1 = std::stod(table.cell(1, 2));
  EXPECT_GE(f0 + f1, 1.0);
}

TEST(Report, PartialStoreIntersectsRepetitions) {
  // An interrupted store must still analyze: pairwise statistics use the
  // repetitions present on both sides. 7 of 12 cells = class "low" fully
  // paired, class "high" with a lone unpaired SE record.
  const CampaignSpec spec = tiny_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions opts;
  opts.max_cells = 7;
  run_campaign(spec, store, opts);
  const CampaignDataset ds = build_dataset(store);
  const Table pair = pair_comparison_table(ds, ReportOptions{});
  EXPECT_EQ(pair.rows(), 1u);  // only the fully-paired class
  EXPECT_EQ(pair.cell(0, 0), "low");
  const std::string report = full_report(store, ReportFormat::kMarkdown);
  EXPECT_NE(report.find("## Summary"), std::string::npos);
}

/// Copies the rows of `store` that `keep(record)` accepts into a fresh
/// in-memory store — simulates arbitrary partial shard stores.
template <typename Keep>
ResultStore filter_store(const CampaignSpec& spec, const ResultStore& store,
                         Keep keep) {
  ResultStore out = ResultStore::in_memory(spec.store_schema());
  for (const StoreRow& row : store.rows()) {
    if (keep(CampaignRecord::from_row(row))) out.append(row);
  }
  return out;
}

TEST(Report, WinLossIntersectsRepetitionsPerPair) {
  // SE and GA share reps {0, 1}; HEFT only has rep 2. A third scheduler
  // sharing no seeds must not erase the fully-paired SE/GA rows.
  CampaignSpec spec = tiny_spec();
  spec.schedulers = {"SE", "GA", "HEFT"};
  const ResultStore full = run_in_memory(spec, 2);
  const ResultStore partial =
      filter_store(spec, full, [](const CampaignRecord& r) {
        return r.scheduler == "HEFT" ? r.repetition == 2 : r.repetition < 2;
      });
  const Table table = win_loss_table(build_dataset(partial));
  ASSERT_EQ(table.rows(), 2u);  // one SE-vs-GA row per class, nothing else
  for (std::size_t r = 0; r < table.rows(); ++r) {
    EXPECT_EQ(table.cell(r, 1), "SE");
    EXPECT_EQ(table.cell(r, 2), "GA");
  }
}

TEST(Report, DisjointRepetitionsDegradeToNotes) {
  // SE only has rep 0, GA only rep 1: both groups exist but nothing pairs.
  // has_paired_records must say so, and the full report must degrade to
  // notes instead of dying mid-output (the sehc_campaign table guard).
  const CampaignSpec spec = tiny_spec();
  const ResultStore full = run_in_memory(spec, 2);
  const ResultStore partial =
      filter_store(spec, full, [](const CampaignRecord& r) {
        return r.repetition == (r.scheduler == "SE" ? 0u : 1u);
      });
  const CampaignDataset ds = build_dataset(partial);
  EXPECT_FALSE(has_paired_records(ds, "SE", "GA"));
  EXPECT_THROW(pair_comparison_table(ds, ReportOptions{}), Error);
  std::ostringstream os;
  write_report(os, ds, ReportOptions{}, ReportFormat::kMarkdown);
  EXPECT_NE(os.str().find("no paired SE and GA records"),
            std::string::npos);
}

TEST(Report, CsvFormatEmitsSections) {
  const ResultStore store = run_in_memory(tiny_spec(), 1);
  const std::string report = full_report(store, ReportFormat::kCsv);
  EXPECT_EQ(report.rfind("# sehc-report v1\n", 0), 0u);
  EXPECT_NE(report.find("# section: summary"), std::string::npos);
  EXPECT_NE(report.find("# section: crossings"), std::string::npos);
  EXPECT_NE(report.find("# section: profile"), std::string::npos);
  EXPECT_NE(report.find("class,scheduler,n,mean,ci_lo,ci_hi,mean_vs_lb"),
            std::string::npos);
}

TEST(Report, ParseFormat) {
  EXPECT_EQ(parse_report_format("md"), ReportFormat::kMarkdown);
  EXPECT_EQ(parse_report_format("markdown"), ReportFormat::kMarkdown);
  EXPECT_EQ(parse_report_format("csv"), ReportFormat::kCsv);
  EXPECT_THROW(parse_report_format("pdf"), Error);
}

}  // namespace
}  // namespace sehc
