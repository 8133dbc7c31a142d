#include "exp/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include "core/error.h"
#include "core/table.h"
#include "exp/anytime.h"
#include "heuristics/heft.h"
#include "heuristics/scheduler.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// A campaign small enough to run many times per test but exercising the
/// full record shape: 2 classes x 2 reps x 2 schedulers = 8 cells.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny";
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
  spec.schedulers = {"SE", "HEFT"};
  spec.repetitions = 2;
  spec.iterations = 8;
  return spec;
}

std::string temp_store_path(const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sehc_campaign_test_" + tag + ".csv"))
          .string();
  std::remove(path.c_str());
  return path;
}

std::string canonical_text(const ResultStore& store) {
  std::ostringstream os;
  store.write_canonical(os);
  return os.str();
}

TEST(CampaignSpec, HashIsStableAndCoversEveryField) {
  const CampaignSpec base = tiny_spec();
  EXPECT_EQ(base.hash(), tiny_spec().hash());

  auto expect_changed = [&](auto&& mutate) {
    CampaignSpec changed = tiny_spec();
    mutate(changed);
    EXPECT_NE(changed.hash(), base.hash());
  };
  expect_changed([](CampaignSpec& s) { s.iterations = 9; });
  expect_changed([](CampaignSpec& s) { s.repetitions = 3; });
  expect_changed([](CampaignSpec& s) { s.base_seed = 7; });
  expect_changed([](CampaignSpec& s) { s.curve_points = 4; });
  expect_changed([](CampaignSpec& s) { s.schedulers = {"SE", "GA"}; });
  expect_changed([](CampaignSpec& s) { s.classes[0].params.ccr = 0.9; });
  expect_changed([](CampaignSpec& s) { s.classes[0].params.tasks = 17; });
  expect_changed([](CampaignSpec& s) { s.classes[0].name = "renamed"; });
}

TEST(CampaignSpec, ValidateRejectsMalformedSpecs) {
  CampaignSpec spec = tiny_spec();
  spec.schedulers = {"NoSuchScheduler"};
  EXPECT_THROW(spec.validate(), Error);

  spec = tiny_spec();
  spec.schedulers = {"SE", "SE"};
  EXPECT_THROW(spec.validate(), Error);

  spec = tiny_spec();
  spec.classes.clear();
  EXPECT_THROW(spec.validate(), Error);

  spec = tiny_spec();
  spec.iterations = 0;
  EXPECT_THROW(spec.validate(), Error);

  // Time budgets accept one-shot schedulers since the single-step engine
  // wrapper landed: HEFT now rides the engine path as a flat baseline.
  spec = tiny_spec();
  spec.time_budget_seconds = 0.5;
  EXPECT_NO_THROW(spec.validate());  // has HEFT — now engine-backed

  spec = tiny_spec();
  spec.classes[1].name = spec.classes[0].name;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(ShardPlan, PartitionsCellsExactly) {
  for (const std::size_t count : {1u, 2u, 3u, 7u, 11u}) {
    const std::size_t num_cells = 24;
    std::set<std::size_t> seen;
    for (std::size_t index = 0; index < count; ++index) {
      const ShardPlan shard{index, count};
      for (const std::size_t cell : shard.cells(num_cells)) {
        EXPECT_TRUE(shard.owns(cell));
        EXPECT_LT(cell, num_cells);
        EXPECT_TRUE(seen.insert(cell).second)
            << "cell " << cell << " owned twice (count=" << count << ")";
      }
    }
    EXPECT_EQ(seen.size(), num_cells) << "count=" << count;
  }
  EXPECT_THROW((ShardPlan{2, 2}.validate()), Error);
  EXPECT_THROW((ShardPlan{0, 0}.validate()), Error);
}

TEST(ShardPlan, ParsesTheCliForm) {
  const std::optional<ShardPlan> shard = ShardPlan::parse("2/8");
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(shard->index, 2u);
  EXPECT_EQ(shard->count, 8u);
  for (const char* bad : {"", "3", "x/2", "0/", "0/2x", "-1/2", " 1/2",
                          "0/0", "4/2" /* index out of range */}) {
    EXPECT_FALSE(ShardPlan::parse(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(CampaignRecord, RowRoundTrip) {
  CampaignRecord rec;
  rec.cell = 12;
  rec.class_name = "high";
  rec.scheduler = "SE";
  rec.repetition = 1;
  rec.workload_seed = 0xdeadbeefULL;
  rec.scheduler_seed = 0x1234ULL;
  rec.makespan = 123.4567;
  rec.lower_bound = 99.5;
  rec.curve = {std::numeric_limits<double>::infinity(), 150.0, 123.4567};
  rec.seconds = 0.25;

  const CampaignRecord back = CampaignRecord::from_row(rec.to_row());
  EXPECT_EQ(back.cell, rec.cell);
  EXPECT_EQ(back.class_name, rec.class_name);
  EXPECT_EQ(back.scheduler, rec.scheduler);
  EXPECT_EQ(back.repetition, rec.repetition);
  EXPECT_EQ(back.workload_seed, rec.workload_seed);
  EXPECT_EQ(back.scheduler_seed, rec.scheduler_seed);
  EXPECT_DOUBLE_EQ(back.makespan, 123.4567);
  EXPECT_DOUBLE_EQ(back.lower_bound, 99.5);
  ASSERT_EQ(back.curve.size(), 3u);
  EXPECT_TRUE(std::isinf(back.curve[0]));
  EXPECT_DOUBLE_EQ(back.curve[1], 150.0);
  // Round-trip of a serialized record is byte-stable.
  EXPECT_EQ(back.to_row(), rec.to_row());
}

TEST(Campaign, ThreadCountDoesNotChangeTheCanonicalStore) {
  const CampaignSpec spec = tiny_spec();
  ResultStore serial = ResultStore::in_memory(spec.store_schema());
  ResultStore parallel = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions opts;
  opts.threads = 1;
  run_campaign(spec, serial, opts);
  opts.threads = 4;
  run_campaign(spec, parallel, opts);
  EXPECT_EQ(canonical_text(serial), canonical_text(parallel));
}

TEST(Campaign, ShardedMergeIsByteIdenticalToSingleProcessRun) {
  const CampaignSpec spec = tiny_spec();
  const std::string p0 = temp_store_path("shard0");
  const std::string p1 = temp_store_path("shard1");
  {
    ResultStore s0 = ResultStore::open(p0, spec.store_schema());
    CampaignRunOptions opts;
    opts.threads = 2;
    opts.shard = {0, 2};
    const CampaignRunSummary summary = run_campaign(spec, s0, opts);
    EXPECT_EQ(summary.total_cells, 8u);
    EXPECT_EQ(summary.shard_cells, 4u);
    EXPECT_EQ(summary.executed_cells, 4u);

    ResultStore s1 = ResultStore::open(p1, spec.store_schema());
    opts.shard = {1, 2};
    opts.threads = 3;
    run_campaign(spec, s1, opts);
  }
  const ResultStore merged = ResultStore::merge({p0, p1});

  ResultStore single = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions opts;
  opts.threads = 1;
  run_campaign(spec, single, opts);

  EXPECT_EQ(canonical_text(merged), canonical_text(single));
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(Campaign, InterruptedRunResumesToTheIdenticalStore) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = temp_store_path("resume");
  {
    // "Kill" the campaign after 3 cells.
    ResultStore store = ResultStore::open(path, spec.store_schema());
    CampaignRunOptions opts;
    opts.max_cells = 3;
    const CampaignRunSummary summary = run_campaign(spec, store, opts);
    EXPECT_EQ(summary.executed_cells, 3u);
    EXPECT_EQ(store.size(), 3u);
  }
  {
    // Resume: only the remaining cells run.
    ResultStore store = ResultStore::open(path, spec.store_schema());
    CampaignRunOptions opts;
    const CampaignRunSummary summary = run_campaign(spec, store, opts);
    EXPECT_EQ(summary.resumed_cells, 3u);
    EXPECT_EQ(summary.executed_cells, 5u);
  }
  const ResultStore resumed = ResultStore::load(path);

  ResultStore uninterrupted = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, uninterrupted, {});
  EXPECT_EQ(canonical_text(resumed), canonical_text(uninterrupted));
  std::remove(path.c_str());
}

TEST(Campaign, CurveCaptureKeepsMakespansBitIdentical) {
  // The SE/GA engine path (curve capture on) must produce exactly the
  // makespans of the factory path (curve capture off).
  CampaignSpec with_curve = tiny_spec();
  with_curve.schedulers = {"SE", "GA"};
  with_curve.curve_points = 4;
  CampaignSpec without_curve = with_curve;
  without_curve.curve_points = 0;

  ResultStore a = ResultStore::in_memory(with_curve.store_schema());
  ResultStore b = ResultStore::in_memory(without_curve.store_schema());
  run_campaign(with_curve, a, {});
  run_campaign(without_curve, b, {});

  const auto ra = campaign_records(a);
  const auto rb = campaign_records(b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].makespan, rb[i].makespan) << ra[i].scheduler;
    ASSERT_EQ(ra[i].curve.size(), 4u);
    EXPECT_TRUE(rb[i].curve.empty());
    // Curves are nonincreasing and end at the final makespan.
    for (std::size_t p = 1; p < ra[i].curve.size(); ++p) {
      EXPECT_LE(ra[i].curve[p], ra[i].curve[p - 1]);
    }
    EXPECT_DOUBLE_EQ(ra[i].curve.back(), ra[i].makespan);
  }
}

TEST(Campaign, StoreFromDifferentSpecIsRejected) {
  const CampaignSpec spec = tiny_spec();
  CampaignSpec other = tiny_spec();
  other.iterations = 99;
  ResultStore store = ResultStore::in_memory(other.store_schema());
  EXPECT_THROW(run_campaign(spec, store, {}), Error);
}

TEST(Campaign, RecordsCarryCoordinateDerivedSeeds) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  const SweepGrid grid = spec.grid();
  for (const CampaignRecord& rec : campaign_records(store)) {
    const auto coords = grid.coords(rec.cell);
    EXPECT_EQ(rec.scheduler_seed, grid.cell_seed(spec.base_seed, rec.cell));
    EXPECT_EQ(rec.workload_seed,
              derive_seed(spec.base_seed, {coords[0], coords[1]}));
    // Both schedulers of a cell column see the same instance.
    EXPECT_EQ(rec.class_name, spec.classes[coords[0]].name);
  }
  // Different derived seeds generate different instances; the lower bound
  // is a cheap fingerprint of the instance.
  const auto records = campaign_records(store);
  const auto lower_bound = [&](std::size_t rep) {
    for (const CampaignRecord& rec : records) {
      if (rec.class_name == "low" && rec.repetition == rep) {
        return rec.lower_bound;
      }
    }
    ADD_FAILURE() << "no record for rep " << rep;
    return 0.0;
  };
  EXPECT_NE(lower_bound(0), lower_bound(1));
}

TEST(Campaign, TimeBudgetCampaignRunsAndCapturesCurves) {
  CampaignSpec spec = tiny_spec();
  spec.schedulers = {"SE", "GA"};
  spec.iterations = 0;
  spec.time_budget_seconds = 0.05;
  spec.curve_points = 5;
  spec.repetitions = 1;
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  const auto records = campaign_records(store);
  ASSERT_EQ(records.size(), 4u);  // 2 classes x 1 rep x SE,GA
  for (const CampaignRecord& rec : records) {
    ASSERT_EQ(rec.curve.size(), 5u);
    EXPECT_GT(rec.makespan, 0.0);
    EXPECT_GE(rec.makespan, rec.lower_bound);
    // With one repetition the class keeps its pinned instance seed.
    EXPECT_EQ(rec.workload_seed, 1u);  // WorkloadParams default seed
  }
}

TEST(Campaign, GenericGridDriverShardsAndResumes) {
  // run_store_grid drives non-scheduler producers (workload metrics).
  const SweepGrid grid({{"x", 3}, {"y", 2}});
  StoreSchema schema;
  schema.kind = "generic-test";
  schema.spec_hash = content_hash64("generic v1");
  schema.spec_line = "generic";
  schema.columns = {"coords", "seed"};

  auto row_fn = [&](const SweepCell& cell, const CellContext&) {
    return std::vector<std::string>{
        std::to_string(cell.at(0)) + ":" + std::to_string(cell.at(1)),
        std::to_string(cell.seed)};
  };

  ResultStore full = ResultStore::in_memory(schema);
  run_store_grid(grid, full, {}, 42, row_fn);
  EXPECT_EQ(full.size(), 6u);

  ResultStore sharded = ResultStore::in_memory(schema);
  CampaignRunOptions opts;
  opts.shard = {0, 2};
  run_store_grid(grid, sharded, opts, 42, row_fn);
  EXPECT_EQ(sharded.size(), 3u);
  opts.shard = {1, 2};
  opts.threads = 2;
  run_store_grid(grid, sharded, opts, 42, row_fn);
  EXPECT_EQ(canonical_text(sharded), canonical_text(full));
}

TEST(Campaign, BuiltinSpecsAreValidAndScaled) {
  for (const std::string& name : builtin_campaign_names()) {
    const CampaignSpec spec = make_builtin_campaign(name);
    EXPECT_NO_THROW(spec.validate()) << name;
    EXPECT_EQ(spec.name, name);
  }
  // The ROADMAP scale-up: the scaled grid is >= 10x the paper grid.
  const std::size_t paper =
      make_builtin_campaign("paper-class-grid").grid().num_cells();
  const std::size_t scaled =
      make_builtin_campaign("scaled-class-grid").grid().num_cells();
  EXPECT_GE(scaled, 10 * paper);
  EXPECT_THROW(make_builtin_campaign("nope"), Error);

  // The baseline table: every registered scheduler on the figure
  // workloads and paper_small, each pinned at seed 42, one repetition of
  // 150 iterations.
  CampaignSpec expected;
  expected.name = "baselines";
  expected.classes = {{"high-conn", paper_fig5_high_connectivity(42)},
                      {"ccr1", paper_fig6_ccr1(42)},
                      {"low-all", paper_fig7_low_everything(42)},
                      {"small", paper_small(42)}};
  expected.schedulers = scheduler_names();
  expected.repetitions = 1;
  expected.iterations = 150;
  expected.base_seed = 42;
  const CampaignSpec baselines = make_builtin_campaign("baselines");
  EXPECT_EQ(baselines.canonical_string(), expected.canonical_string());
  EXPECT_EQ(baselines.schedulers.size(), 13u);
}

TEST(Campaign, FigureSpecsSampleAnytimeCurvesInsideCells) {
  // The fig5-7 anytime benches ride on the campaign layer: a tiny-budget
  // fig spec produces finite, nonincreasing 20-point curves per heuristic.
  CampaignSpec spec = make_builtin_campaign("fig5-anytime");
  spec.time_budget_seconds = 0.05;
  for (CampaignClass& c : spec.classes) {
    c.params.tasks = 20;
    c.params.machines = 4;
  }
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  const auto records = campaign_records(store);
  ASSERT_EQ(records.size(), 2u);
  for (const CampaignRecord& rec : records) {
    ASSERT_EQ(rec.curve.size(), 20u);
    EXPECT_TRUE(std::isfinite(rec.curve.back()));
    // Samples are best-so-far at each instant: nonincreasing, and never
    // better than the final best (improvements may land just past the
    // budget, so equality at the last sample is not guaranteed).
    for (std::size_t p = 1; p < rec.curve.size(); ++p) {
      EXPECT_LE(rec.curve[p], rec.curve[p - 1]);
    }
    EXPECT_GE(rec.curve.back(), rec.makespan);
  }
}

/// All six stepwise searchers under an equal evaluator-trial budget, small
/// enough for repeated runs: 2 classes x 2 reps x 6 searchers = 24 cells.
CampaignSpec equal_evals_spec() {
  CampaignSpec spec = tiny_spec();
  spec.name = "equal-evals-test";
  spec.schedulers = {"SE", "GA", "GSA", "SA", "Tabu", "Random"};
  spec.iterations = 0;
  spec.eval_budget = 400;
  spec.curve_points = 5;
  return spec;
}

TEST(Campaign, EqualEvalsCellsCaptureCurvesForEverySearcher) {
  const CampaignSpec spec = equal_evals_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  const auto records = campaign_records(store);
  ASSERT_EQ(records.size(), 24u);
  std::set<std::string> seen;
  for (const CampaignRecord& rec : records) {
    seen.insert(rec.scheduler);
    // Every searcher consumed at least the budget (steps are atomic, so
    // the final step may overshoot) and the count is audited per record.
    EXPECT_GE(rec.evals, spec.eval_budget) << rec.scheduler;
    ASSERT_EQ(rec.curve.size(), 5u) << rec.scheduler;
    // Monotone non-increasing best along the evals axis, terminal sample
    // at the budget equal to the recorded makespan.
    for (std::size_t p = 1; p < rec.curve.size(); ++p) {
      EXPECT_LE(rec.curve[p], rec.curve[p - 1]) << rec.scheduler;
    }
    EXPECT_TRUE(std::isfinite(rec.curve.back())) << rec.scheduler;
    EXPECT_DOUBLE_EQ(rec.curve.back(), rec.makespan) << rec.scheduler;
    EXPECT_GE(rec.makespan, rec.lower_bound) << rec.scheduler;
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Campaign, StepBudgetCellsCaptureCurvesForTabuAnnealingGsa) {
  // The searchers that had no anytime capture before the stepwise rewire:
  // iteration-budget cells now persist their curves too (on each
  // searcher's own step axis).
  CampaignSpec spec = tiny_spec();
  spec.schedulers = {"GSA", "SA", "Tabu"};
  spec.curve_points = 4;
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  const auto records = campaign_records(store);
  ASSERT_EQ(records.size(), 12u);
  for (const CampaignRecord& rec : records) {
    ASSERT_EQ(rec.curve.size(), 4u) << rec.scheduler;
    for (std::size_t p = 1; p < rec.curve.size(); ++p) {
      EXPECT_LE(rec.curve[p], rec.curve[p - 1]) << rec.scheduler;
    }
    // The terminal sample sits at the searcher's full step budget: the
    // recorded best.
    EXPECT_DOUBLE_EQ(rec.curve.back(), rec.makespan) << rec.scheduler;
    EXPECT_GT(rec.evals, 0u) << rec.scheduler;
  }
}

TEST(Campaign, SearcherCurvesAreThreadAndShardInvariant) {
  // The satellite invariant for tabu/annealing/GSA (and the equal-evals
  // grid as a whole): canonical bytes identical across --threads 1 vs 8
  // and across a 2-shard merge.
  const CampaignSpec spec = equal_evals_spec();

  ResultStore serial = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions opts;
  opts.threads = 1;
  run_campaign(spec, serial, opts);

  ResultStore threaded = ResultStore::in_memory(spec.store_schema());
  opts.threads = 8;
  run_campaign(spec, threaded, opts);
  EXPECT_EQ(canonical_text(serial), canonical_text(threaded));

  const std::string p0 = temp_store_path("evals_shard0");
  const std::string p1 = temp_store_path("evals_shard1");
  {
    ResultStore s0 = ResultStore::open(p0, spec.store_schema());
    CampaignRunOptions shard_opts;
    shard_opts.shard = {0, 2};
    shard_opts.threads = 2;
    run_campaign(spec, s0, shard_opts);
    ResultStore s1 = ResultStore::open(p1, spec.store_schema());
    shard_opts.shard = {1, 2};
    run_campaign(spec, s1, shard_opts);
  }
  const ResultStore merged = ResultStore::merge({p0, p1});
  EXPECT_EQ(canonical_text(merged), canonical_text(serial));
  std::remove(p0.c_str());
  std::remove(p1.c_str());
}

TEST(Campaign, EvalBudgetValidation) {
  // One-shot schedulers are valid under an eval budget (they ride the
  // single-step engine wrapper), but time and eval budgets stay exclusive.
  CampaignSpec spec = equal_evals_spec();
  spec.schedulers = {"SE", "HEFT"};
  EXPECT_NO_THROW(spec.validate());

  spec = equal_evals_spec();
  spec.time_budget_seconds = 1.0;
  EXPECT_THROW(spec.validate(), Error);

  // The eval budget is part of the spec identity.
  CampaignSpec changed = equal_evals_spec();
  changed.eval_budget = 500;
  EXPECT_NE(changed.hash(), equal_evals_spec().hash());
  EXPECT_NE(changed.store_schema().spec_line,
            equal_evals_spec().store_schema().spec_line);
}

TEST(Campaign, OneShotBaselinesJoinEvalBudgetCampaigns) {
  // HEFT and MinMin as flat baselines next to SE under an equal-evals
  // budget: 0 trials consumed and a curve flat at the final makespan from
  // the first grid point.
  CampaignSpec spec = equal_evals_spec();
  spec.schedulers = {"SE", "HEFT", "MinMin"};
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  const auto records = campaign_records(store);
  ASSERT_EQ(records.size(), 12u);  // 2 classes x 2 reps x 3 schedulers
  std::size_t one_shot_cells = 0;
  for (const CampaignRecord& rec : records) {
    if (rec.scheduler == "SE") {
      EXPECT_GE(rec.evals, spec.eval_budget);
      continue;
    }
    ++one_shot_cells;
    EXPECT_EQ(rec.evals, 0u) << rec.scheduler;
    ASSERT_EQ(rec.curve.size(), 5u) << rec.scheduler;
    for (const double sample : rec.curve) {
      EXPECT_DOUBLE_EQ(sample, rec.makespan) << rec.scheduler;
    }
    EXPECT_GE(rec.makespan, rec.lower_bound) << rec.scheduler;
  }
  EXPECT_EQ(one_shot_cells, 8u);
}

TEST(Campaign, RecordsCarryAuditableEvalCounts) {
  // Iteration-budget cells: searchers record their true trial counts,
  // one-shot schedulers record zero, a curve flat at their makespan, and
  // exactly the makespan of their plain schedule function on the cell's
  // instance.
  CampaignSpec spec = tiny_spec();  // SE + HEFT, 8 iterations
  spec.curve_points = 4;
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  std::size_t heft_cells = 0;
  for (const CampaignRecord& rec : campaign_records(store)) {
    if (rec.scheduler == "SE") {
      EXPECT_GT(rec.evals, 0u);
      continue;
    }
    ++heft_cells;
    EXPECT_EQ(rec.evals, 0u);
    EXPECT_EQ(rec.curve, std::vector<double>(4, rec.makespan));
    WorkloadParams params =
        spec.classes[spec.grid().coords(rec.cell)[0]].params;
    params.seed = rec.workload_seed;
    // The store keeps 4 decimals.
    EXPECT_EQ(format_fixed(rec.makespan, 4),
              format_fixed(heft_schedule(make_workload(params)).makespan, 4));
  }
  EXPECT_EQ(heft_cells, 4u);
}

}  // namespace
}  // namespace sehc
