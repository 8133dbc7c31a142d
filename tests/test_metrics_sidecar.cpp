#include "obs/metrics_sidecar.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "exp/result_store.h"
#include "obs/metrics.h"

namespace sehc {
namespace {

std::string temp_path(const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("sehc_metrics_test_" + tag))
          .string();
  std::remove(path.c_str());
  std::remove((path + ".metrics.csv").c_str());
  std::remove((path + ".failed.csv").c_str());
  return path;
}

/// Same tiny grid as the campaign tests: 2 classes x 2 reps x 2 schedulers.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny-metrics";
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

/// The deterministic (ms-less) rendering the byte-equality checks compare.
std::string canonical_rows(const std::vector<MetricsRow>& rows,
                           std::uint64_t spec_hash) {
  std::ostringstream os;
  write_metrics_rows(os, rows, spec_hash, /*include_ms=*/false);
  return os.str();
}

TEST(MetricsSidecarTest, RowsFromSnapshotFlattenCountersAndPhases) {
  MetricsRegistry registry;
  registry.counter_add("engine/SE/steps", 8);
  registry.phase_record("cell", 1, 0, 0.25);
  registry.phase_record("cell/engine:SE", 1, 8, 0.2);
  const std::vector<MetricsRow> rows =
      metrics_rows_from_snapshot(7, registry.snapshot());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].cell, 7u);
  EXPECT_EQ(rows[0].kind, "counter");
  EXPECT_EQ(rows[0].name, "engine/SE/steps");
  EXPECT_EQ(rows[0].count, 8u);
  EXPECT_EQ(rows[1].kind, "phase");
  EXPECT_EQ(rows[1].name, "cell");
  EXPECT_EQ(rows[1].count, 1u);
  EXPECT_DOUBLE_EQ(rows[1].ms, 250.0);
  EXPECT_EQ(rows[2].name, "cell/engine:SE");
  EXPECT_EQ(rows[2].rounds, 8u);
}

TEST(MetricsSidecarTest, WriteReadRoundTrip) {
  const std::vector<MetricsRow> rows{
      {0, "counter", "engine/SE/steps", 8, 0, 0.0},
      {0, "phase", "cell", 1, 8, 12.5},
      {3, "phase", "cell", 1, 8, 9.75},
  };
  const std::string path = temp_path("roundtrip") + ".metrics.csv";
  for (const bool include_ms : {true, false}) {
    std::ostringstream os;
    write_metrics_rows(os, rows, 0xabcdu, include_ms);
    std::ofstream(path, std::ios::binary) << os.str();
    const std::vector<MetricsRow> loaded = read_metrics_sidecar(path);
    ASSERT_EQ(loaded.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(loaded[i].cell, rows[i].cell);
      EXPECT_EQ(loaded[i].kind, rows[i].kind);
      EXPECT_EQ(loaded[i].name, rows[i].name);
      EXPECT_EQ(loaded[i].count, rows[i].count);
      EXPECT_EQ(loaded[i].rounds, rows[i].rounds);
      if (include_ms) {
        EXPECT_DOUBLE_EQ(loaded[i].ms, rows[i].ms);
      } else {
        EXPECT_DOUBLE_EQ(loaded[i].ms, 0.0);  // canonical drops ms
      }
    }
  }
  std::remove(path.c_str());
  EXPECT_TRUE(read_metrics_sidecar(path).empty());  // missing file -> empty
}

TEST(MetricsSidecarTest, MergeSortsAndKeepsLastOccurrence) {
  std::vector<MetricsRow> rows{
      {2, "phase", "cell", 1, 0, 1.0},
      {0, "phase", "cell", 3, 0, 5.0},  // stale attempt tally
      {0, "counter", "engine/SE/steps", 8, 0, 0.0},
      {0, "phase", "cell", 1, 0, 2.0},  // healed re-run wins
  };
  const std::vector<MetricsRow> merged = merge_metrics_rows(std::move(rows));
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].kind, "counter");
  EXPECT_EQ(merged[1].cell, 0u);
  EXPECT_EQ(merged[1].kind, "phase");
  EXPECT_EQ(merged[1].count, 1u);  // last occurrence, not the stale one
  EXPECT_DOUBLE_EQ(merged[1].ms, 2.0);
  EXPECT_EQ(merged[2].cell, 2u);
}

/// The campaign acceptance contract: the deterministic sidecar columns of a
/// 2-shard run merged together are byte-identical to one single-process run.
TEST(MetricsSidecarTest, ShardedRunMergesToSingleProcessSidecar) {
  const CampaignSpec spec = tiny_spec();

  ResultStore single = ResultStore::in_memory(spec.store_schema());
  const CampaignRunSummary single_summary = run_campaign(spec, single, {});
  ASSERT_FALSE(single_summary.metrics.empty());

  std::vector<MetricsRow> sharded;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::string path = temp_path("shard" + std::to_string(shard));
    ResultStore store = ResultStore::open(path, spec.store_schema());
    CampaignRunOptions opts;
    opts.shard = ShardPlan{shard, 2};
    const CampaignRunSummary summary = run_campaign(spec, store, opts);
    EXPECT_EQ(summary.metrics_path, default_metrics_path(path));
    const std::vector<MetricsRow> rows =
        read_metrics_sidecar(summary.metrics_path);
    ASSERT_FALSE(rows.empty());
    sharded.insert(sharded.end(), rows.begin(), rows.end());
    std::remove(path.c_str());
    std::remove(summary.metrics_path.c_str());
  }

  EXPECT_EQ(canonical_rows(merge_metrics_rows(std::move(sharded)),
                           spec.hash()),
            canonical_rows(single_summary.metrics, spec.hash()));
}

TEST(MetricsSidecarTest, ThreadCountDoesNotChangeDeterministicColumns) {
  const CampaignSpec spec = tiny_spec();
  CampaignRunOptions serial_opts;
  serial_opts.threads = 1;
  CampaignRunOptions parallel_opts;
  parallel_opts.threads = 4;

  ResultStore serial = ResultStore::in_memory(spec.store_schema());
  ResultStore parallel = ResultStore::in_memory(spec.store_schema());
  const CampaignRunSummary a = run_campaign(spec, serial, serial_opts);
  const CampaignRunSummary b = run_campaign(spec, parallel, parallel_opts);

  EXPECT_EQ(canonical_rows(a.metrics, spec.hash()),
            canonical_rows(b.metrics, spec.hash()));
}

TEST(MetricsSidecarTest, QuarantinedCellsStillRecordAttemptSpans) {
  const CampaignSpec spec = tiny_spec();
  CampaignRunOptions opts;
  // Cell 0 throws on every attempt -> quarantined, never stored.
  opts.fault_plan = FaultPlan::parse("throw-cells=0;throw-attempts=all");
  opts.cell_retries = 1;

  ResultStore store = ResultStore::in_memory(spec.store_schema());
  const CampaignRunSummary summary = run_campaign(spec, store, opts);
  EXPECT_EQ(summary.failed_cells, 1u);

  bool found_attempt_span = false;
  for (const MetricsRow& row : summary.metrics) {
    if (row.cell == 0 && row.kind == "phase" && row.name == "cell") {
      found_attempt_span = true;
      // One visit per attempt (initial + one retry), even though the cell
      // never produced a record.
      EXPECT_EQ(row.count, 2u);
    }
  }
  EXPECT_TRUE(found_attempt_span);
}

/// Resume convergence: a sidecar left by a faulted run converges to the
/// fault-free sidecar after the rerun heals the cell (keep-last dedup).
TEST(MetricsSidecarTest, HealedRerunConvergesToFaultFreeSidecar) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = temp_path("heal");

  // Fault-free reference.
  ResultStore clean = ResultStore::in_memory(spec.store_schema());
  const CampaignRunSummary clean_summary = run_campaign(spec, clean, {});

  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    CampaignRunOptions opts;
    opts.fault_plan = FaultPlan::parse("throw-cells=2;throw-attempts=all");
    const CampaignRunSummary summary = run_campaign(spec, store, opts);
    EXPECT_EQ(summary.failed_cells, 1u);
  }
  {
    // Rerun without faults: only the quarantined cell is pending; its fresh
    // rows must supersede the faulted attempt's.
    ResultStore store = ResultStore::open(path, spec.store_schema());
    const CampaignRunSummary summary = run_campaign(spec, store, {});
    EXPECT_EQ(summary.failed_cells, 0u);
    EXPECT_EQ(canonical_rows(summary.metrics, spec.hash()),
              canonical_rows(clean_summary.metrics, spec.hash()));
  }
  std::remove(path.c_str());
  std::remove(default_metrics_path(path).c_str());
  std::remove((path + ".failed.csv").c_str());
}

}  // namespace
}  // namespace sehc
