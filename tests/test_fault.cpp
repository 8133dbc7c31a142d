#include "exp/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.h"
#include "core/error.h"
#include "exp/campaign.h"
#include "exp/result_store.h"
#include "obs/metrics.h"
#include "obs/metrics_sidecar.h"

namespace sehc {
namespace {

std::string temp_path(const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("sehc_fault_test_" + tag))
          .string();
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Same shape as the campaign tests' tiny spec: 2x2x2 = 8 cells, fast
/// enough to run the full grid many times per test.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.name = "tiny-fault";
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

std::string canonical_text(const ResultStore& store) {
  std::ostringstream os;
  store.write_canonical(os);
  return os.str();
}

std::string clean_canonical(const CampaignSpec& spec) {
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});
  return canonical_text(store);
}

// --- FaultPlan parsing ------------------------------------------------------

TEST(FaultPlan, EmptySpecParsesToTheEmptyPlan) {
  const FaultPlan plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.cell_fault(0, 0), FaultKind::kNone);
  EXPECT_FALSE(plan.has_torn_write());
  EXPECT_TRUE(FaultPlan().empty());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("nonsense=1"), Error);
  EXPECT_THROW(FaultPlan::parse("throw=1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("throw=-0.1"), Error);
  EXPECT_THROW(FaultPlan::parse("throw=abc"), Error);
  EXPECT_THROW(FaultPlan::parse("throw-cells="), Error);
  EXPECT_THROW(FaultPlan::parse("throw-cells=1,x"), Error);
  EXPECT_THROW(FaultPlan::parse("hang-attempts=maybe"), Error);
  EXPECT_THROW(FaultPlan::parse("torn-cell"), Error);
  // One past UINT64_MAX overflows: a plan error, not a bare std::stoull.
  EXPECT_THROW(FaultPlan::parse("throw-cells=99999999999999999999"), Error);
  EXPECT_THROW(FaultPlan::parse("torn-bytes=18446744073709551616"), Error);
}

TEST(FaultPlan, DescribeEchoesActiveDirectives) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7;throw=0.25;throw-cells=3,1;hang-cells=5;hang-attempts=all;"
      "torn-cell=9;torn-bytes=12");
  const std::string text = plan.describe();
  EXPECT_NE(text.find("seed=7"), std::string::npos) << text;
  EXPECT_NE(text.find("throw=0.25"), std::string::npos) << text;
  EXPECT_NE(text.find("throw-cells=1,3"), std::string::npos) << text;
  EXPECT_NE(text.find("hang-cells=5"), std::string::npos) << text;
  EXPECT_NE(text.find("torn-cell=9"), std::string::npos) << text;
}

TEST(FaultPlan, ProbabilisticThrowsAreDeterministicPerSeed) {
  const FaultPlan a = FaultPlan::parse("seed=11;throw=0.3;throw-attempts=all");
  const FaultPlan b = FaultPlan::parse("seed=11;throw=0.3;throw-attempts=all");
  const FaultPlan c = FaultPlan::parse("seed=12;throw=0.3;throw-attempts=all");

  std::size_t hits_a = 0, hits_c = 0, diverged = 0;
  const std::size_t cells = 10000;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const FaultKind fa = a.cell_fault(cell, 0);
    ASSERT_EQ(fa, b.cell_fault(cell, 0)) << "cell " << cell;
    const FaultKind fc = c.cell_fault(cell, 0);
    hits_a += fa == FaultKind::kThrow;
    hits_c += fc == FaultKind::kThrow;
    diverged += fa != fc;
  }
  // The hash-based draw should track the requested rate...
  EXPECT_NEAR(static_cast<double>(hits_a) / cells, 0.3, 0.05);
  EXPECT_NEAR(static_cast<double>(hits_c) / cells, 0.3, 0.05);
  // ...and a different seed should pick a genuinely different cell set.
  EXPECT_GT(diverged, cells / 10);
}

TEST(FaultPlan, AttemptWindowsDistinguishTransientFromPermanent) {
  // Default throw-attempts=1: a transient fault, healed by one retry.
  const FaultPlan transient = FaultPlan::parse("throw-cells=4");
  EXPECT_EQ(transient.cell_fault(4, 0), FaultKind::kThrow);
  EXPECT_EQ(transient.cell_fault(4, 1), FaultKind::kNone);
  EXPECT_EQ(transient.cell_fault(5, 0), FaultKind::kNone);

  const FaultPlan window = FaultPlan::parse("throw-cells=4;throw-attempts=2");
  EXPECT_EQ(window.cell_fault(4, 0), FaultKind::kThrow);
  EXPECT_EQ(window.cell_fault(4, 1), FaultKind::kThrow);
  EXPECT_EQ(window.cell_fault(4, 2), FaultKind::kNone);

  const FaultPlan permanent =
      FaultPlan::parse("throw-cells=4;throw-attempts=all");
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(permanent.cell_fault(4, attempt), FaultKind::kThrow);
  }
}

TEST(FaultPlan, HangOutranksSlowOutranksThrow) {
  const FaultPlan plan = FaultPlan::parse(
      "throw-cells=1,2,3;slow-cells=2,3;hang-cells=3;"
      "throw-attempts=all;slow-attempts=all;hang-attempts=all");
  EXPECT_EQ(plan.cell_fault(1, 0), FaultKind::kThrow);
  EXPECT_EQ(plan.cell_fault(2, 0), FaultKind::kSlow);
  EXPECT_EQ(plan.cell_fault(3, 0), FaultKind::kHang);
}

TEST(FaultPlan, TornWriteTargetsExactlyOneCell) {
  const FaultPlan plan = FaultPlan::parse("torn-cell=6;torn-bytes=11");
  ASSERT_TRUE(plan.has_torn_write());
  ASSERT_TRUE(plan.torn_write(6).has_value());
  EXPECT_EQ(*plan.torn_write(6), 11u);
  EXPECT_FALSE(plan.torn_write(5).has_value());
  EXPECT_FALSE(FaultPlan::parse("throw-cells=6").has_torn_write());
}

// --- Deadline + fault application -------------------------------------------

TEST(Deadline, DefaultIsUnlimitedAndAfterArmsAWatchdog) {
  const Deadline none;
  EXPECT_TRUE(none.unlimited());
  EXPECT_FALSE(none.expired());

  const Deadline soon = Deadline::after(0.005);
  EXPECT_FALSE(soon.unlimited());
  EXPECT_DOUBLE_EQ(soon.budget_seconds(), 0.005);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(soon.expired());

  EXPECT_THROW(Deadline::after(0.0), Error);
  EXPECT_THROW(Deadline::after(-1.0), Error);
}

TEST(ApplyCellFault, ThrowsSleepsAndHangsUntilTheDeadline) {
  const FaultPlan plan = FaultPlan::parse(
      "throw-cells=1;slow-cells=2;slow-ms=10;hang-cells=3;"
      "throw-attempts=all;slow-attempts=all;hang-attempts=all");
  const Deadline unlimited;

  try {
    apply_cell_fault(plan, 1, 0, unlimited);
    FAIL() << "expected an injected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos)
        << e.what();
  }

  // kNone and kSlow return normally.
  apply_cell_fault(plan, 0, 0, unlimited);
  apply_cell_fault(plan, 2, 0, unlimited);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(apply_cell_fault(plan, 3, 0, Deadline::after(0.02)),
               TimeoutError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(waited, 0.02);
  EXPECT_LT(waited, 5.0);  // preempted by the deadline, not the safety cap
}

// --- Quarantine sidecar -----------------------------------------------------

TEST(Quarantine, DefaultPathSitsNextToTheStore) {
  EXPECT_EQ(default_quarantine_path("grid.csv"), "grid.csv.failed.csv");
}

TEST(Quarantine, RoundTripsRecordsThroughTheSidecarWithCsvEscaping) {
  const std::string path = temp_path("quarantine_roundtrip.csv");
  QuarantineRecord gnarly;
  gnarly.cell = 7;
  gnarly.coords = "class=1, rep=0, scheduler=1";
  gnarly.label = "class=a,b rep=0 scheduler=\"GA\"";
  gnarly.attempts = 3;
  gnarly.error = "failed, badly: \"quoted\"\nsecond line";
  QuarantineRecord plain;
  plain.cell = 2;
  plain.coords = "class=0, rep=1, scheduler=0";
  plain.label = "class=low rep=1 scheduler=SE";
  plain.attempts = 1;
  plain.error = "boom";

  {
    QuarantineLog log(path);
    log.append(gnarly);
    log.append(plain);
    // Append-through: both records are on disk before finalize().
    EXPECT_EQ(read_quarantine(path).size(), 2u);
    log.finalize();
  }
  // finalize() rewrote the sidecar sorted by cell. The sidecar is strictly
  // line-oriented, so the embedded newline comes back folded into a space.
  QuarantineRecord gnarly_flat = gnarly;
  gnarly_flat.error = "failed, badly: \"quoted\" second line";
  const std::vector<QuarantineRecord> loaded = read_quarantine(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], plain);
  EXPECT_EQ(loaded[1], gnarly_flat);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(Quarantine, MissingSidecarReadsEmptyAndCleanRunDeletesIt) {
  const std::string path = temp_path("quarantine_clean.csv");
  EXPECT_TRUE(read_quarantine(path).empty());
  {
    // Simulate a resume healing every previously quarantined cell: a stale
    // sidecar exists, the new run appends nothing, finalize() removes it.
    std::ofstream(path) << "cell,coords,label,attempts,error\n9,x,y,1,stale\n";
    QuarantineLog log(path);
    log.finalize();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Quarantine, MalformedSidecarFailsLoudly) {
  const std::string path = temp_path("quarantine_bad.csv");
  std::ofstream(path) << "wrong,header\n";
  EXPECT_THROW(read_quarantine(path), Error);
  std::remove(path.c_str());
}

// --- Campaign failure isolation ---------------------------------------------

TEST(FaultCampaign, TransientThrowsAreRetriedToTheIdenticalCanonicalStore) {
  const CampaignSpec spec = tiny_spec();
  const std::string clean = clean_canonical(spec);

  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions options;
  options.cell_retries = 1;
  options.retry_backoff_ms = 1;
  options.fault_plan = FaultPlan::parse("throw-cells=0,3,5");
  const CampaignRunSummary summary = run_campaign(spec, store, options);

  EXPECT_EQ(summary.failed_cells, 0u);
  EXPECT_EQ(summary.retried_cells, 3u);
  EXPECT_EQ(summary.executed_cells, 8u);
  EXPECT_TRUE(summary.quarantined.empty());
  // Retries re-run the identical coordinate-seeded computation, so the
  // canonical output is byte-identical to the fault-free run.
  EXPECT_EQ(canonical_text(store), clean);
}

TEST(FaultCampaign, PermanentFailureQuarantinesAndResumeHeals) {
  const CampaignSpec spec = tiny_spec();
  const std::string clean = clean_canonical(spec);
  const std::string path = temp_path("quarantine_campaign.csv");
  const std::string sidecar = default_quarantine_path(path);

  CampaignRunOptions options;
  options.cell_retries = 2;
  options.retry_backoff_ms = 1;
  options.fault_plan = FaultPlan::parse("throw-cells=5;throw-attempts=all");
  CampaignRunSummary summary;
  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    summary = run_campaign(spec, store, options);
    EXPECT_EQ(store.size(), 7u);
    EXPECT_FALSE(store.contains(5));
  }
  EXPECT_EQ(summary.failed_cells, 1u);
  EXPECT_EQ(summary.executed_cells, 7u);
  EXPECT_EQ(summary.quarantine_path, sidecar);
  ASSERT_EQ(summary.quarantined.size(), 1u);
  const QuarantineRecord& record = summary.quarantined[0];
  EXPECT_EQ(record.cell, 5u);
  EXPECT_EQ(record.attempts, 3u);  // 1 try + 2 retries
  EXPECT_NE(record.error.find("injected fault"), std::string::npos)
      << record.error;
  EXPECT_NE(record.coords.find("class="), std::string::npos) << record.coords;
  EXPECT_NE(record.label.find("scheduler="), std::string::npos)
      << record.label;
  // The sidecar round-trips the summary's records.
  EXPECT_EQ(read_quarantine(sidecar), summary.quarantined);

  // Rerunning without the fault resumes exactly the quarantined cell and
  // removes the sidecar; the merged result matches the fault-free run.
  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    const CampaignRunSummary healed = run_campaign(spec, store, {});
    EXPECT_EQ(healed.resumed_cells, 7u);
    EXPECT_EQ(healed.executed_cells, 1u);
    EXPECT_EQ(healed.failed_cells, 0u);
    EXPECT_EQ(canonical_text(store), clean);
  }
  EXPECT_FALSE(std::filesystem::exists(sidecar));
  std::remove(path.c_str());
}

TEST(FaultCampaign, ProgressCountsQuarantinedCells) {
  // Both progress callbacks fire once per finished cell; the second also
  // sees the cells quarantined so far, which reach the run's total.
  const CampaignSpec spec = tiny_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions options;
  options.retry_backoff_ms = 1;
  options.fault_plan = FaultPlan::parse("throw-cells=2,5;throw-attempts=all");
  std::vector<std::size_t> done_plain;
  std::vector<std::size_t> done;
  std::vector<std::size_t> quarantined;
  options.progress = [&](std::size_t d, std::size_t total) {
    EXPECT_EQ(total, 8u);
    done_plain.push_back(d);
  };
  options.progress_quarantined = [&](std::size_t d, std::size_t total,
                                     std::size_t q) {
    EXPECT_EQ(total, 8u);
    done.push_back(d);
    quarantined.push_back(q);
  };
  const CampaignRunSummary summary = run_campaign(spec, store, options);
  ASSERT_EQ(summary.failed_cells, 2u);
  const std::vector<std::size_t> all{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(done_plain, all);
  EXPECT_EQ(done, all);
  EXPECT_TRUE(std::is_sorted(quarantined.begin(), quarantined.end()));
  ASSERT_FALSE(quarantined.empty());
  EXPECT_EQ(quarantined.front(), 0u);  // cell 0 runs first and succeeds
  EXPECT_EQ(quarantined.back(), 2u);
}

TEST(FaultCampaign, StrictModeFailsFastWithCellCoordinates) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions options;
  options.strict = true;
  options.cell_retries = 5;  // ignored in strict mode
  options.fault_plan = FaultPlan::parse("throw-cells=2");
  try {
    run_campaign(spec, store, options);
    FAIL() << "expected strict mode to rethrow the first cell failure";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep cell 2 ("), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
}

TEST(FaultCampaign, HungCellTimesOutAndIsQuarantined) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  CampaignRunOptions options;
  options.cell_timeout_seconds = 0.05;
  options.retry_backoff_ms = 1;
  options.fault_plan = FaultPlan::parse("hang-cells=1;hang-attempts=all");
  const CampaignRunSummary summary = run_campaign(spec, store, options);

  EXPECT_EQ(summary.failed_cells, 1u);
  EXPECT_EQ(store.size(), 7u);
  ASSERT_EQ(summary.quarantined.size(), 1u);
  EXPECT_EQ(summary.quarantined[0].cell, 1u);
  EXPECT_NE(summary.quarantined[0].error.find("deadline"), std::string::npos)
      << summary.quarantined[0].error;
}

TEST(FaultCampaign, KillAndResumeUnderTransientFaultsMatchesTheCleanRun) {
  const CampaignSpec spec = tiny_spec();
  const std::string clean = clean_canonical(spec);
  const std::string path = temp_path("resume_under_faults.csv");

  CampaignRunOptions options;
  options.cell_retries = 1;
  options.retry_backoff_ms = 1;
  options.fault_plan =
      FaultPlan::parse("seed=3;throw=0.4");  // transient: first attempt only
  options.max_cells = 3;  // simulate a kill after three cells
  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    const CampaignRunSummary partial = run_campaign(spec, store, options);
    EXPECT_EQ(partial.executed_cells, 3u);
  }
  options.max_cells = 0;
  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    const CampaignRunSummary resumed = run_campaign(spec, store, options);
    EXPECT_EQ(resumed.resumed_cells, 3u);
    EXPECT_EQ(resumed.failed_cells, 0u);
    EXPECT_EQ(canonical_text(store), clean);
  }
  std::remove(path.c_str());
}

// --- Torn writes and recovery -----------------------------------------------

StoreSchema generic_schema() {
  StoreSchema schema;
  schema.kind = "torn-test";
  schema.spec_hash = content_hash64("torn-test-spec");
  schema.spec_line = "torn test";
  schema.columns = {"value", "note"};
  return schema;
}

/// Cuts `full` at every byte from `header_size` to its end and reads each
/// prefix back through `read_rows`: exactly the rows whose newline made it
/// into the prefix must come back, in order.
template <typename ReadRows>
void expect_every_cut_reads_the_complete_rows(const std::string& full,
                                              std::size_t header_size,
                                              const std::string& tag,
                                              ReadRows read_rows) {
  const std::string path = temp_path(tag);
  std::ofstream(path, std::ios::binary) << full;
  const auto all = read_rows(path);
  ASSERT_GT(full.size(), header_size);
  for (std::size_t cut = header_size; cut <= full.size(); ++cut) {
    const std::string content = full.substr(0, cut);
    std::ofstream(path, std::ios::binary) << content;
    const auto complete = static_cast<std::size_t>(
        std::count(content.begin() + static_cast<std::ptrdiff_t>(header_size),
                   content.end(), '\n'));
    const auto rows = read_rows(path);
    ASSERT_EQ(rows.size(), complete) << tag << " cut at byte " << cut;
    EXPECT_TRUE(std::equal(rows.begin(), rows.end(), all.begin()))
        << tag << " cut at byte " << cut;
  }
  std::remove(path.c_str());
}

/// Bytes up to and including the `n`-th newline of `text`.
std::size_t header_bytes(const std::string& text, std::size_t n) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < n; ++i) end = text.find('\n', end) + 1;
  return end;
}

TEST(TornWrite, RecoveryDropsTheTornTailAtEveryByteOffset) {
  const std::string path = temp_path("torn_master.csv");
  std::size_t header_size = 0;
  {
    ResultStore store = ResultStore::open(path, generic_schema());
    header_size = static_cast<std::size_t>(std::filesystem::file_size(path));
    for (std::size_t cell = 0; cell < 4; ++cell) {
      store.append(
          StoreRow{cell, {std::to_string(cell * 10), "note-" + std::to_string(cell)}});
    }
  }
  const std::string full = read_file(path);
  ASSERT_GT(full.size(), header_size);

  const std::string torn_path = temp_path("torn_copy.csv");
  for (std::size_t cut = header_size; cut <= full.size(); ++cut) {
    const std::string content = full.substr(0, cut);
    std::ofstream(torn_path, std::ios::binary) << content;

    // Reopening must silently drop the torn trailing line and keep every
    // complete record: exactly one row per newline after the header.
    const std::size_t expected = static_cast<std::size_t>(
        std::count(content.begin() + static_cast<std::ptrdiff_t>(header_size),
                   content.end(), '\n'));
    ResultStore store = ResultStore::open(torn_path, generic_schema());
    ASSERT_EQ(store.size(), expected) << "cut at byte " << cut;
    for (std::size_t cell = 0; cell < expected; ++cell) {
      EXPECT_TRUE(store.contains(cell)) << "cut at byte " << cut;
    }
    // The rewrite is atomic: no temp file survives, and the store accepts
    // appends immediately (the dropped cell simply reruns).
    EXPECT_FALSE(std::filesystem::exists(torn_path + ".tmp"));
    if (expected < 4) {
      store.append(StoreRow{expected,
                            {std::to_string(expected * 10),
                             "note-" + std::to_string(expected)}});
      ASSERT_TRUE(store.contains(expected));
    }
  }
  std::remove(torn_path.c_str());
  std::remove(path.c_str());

  // Both sidecars follow the same discipline: their append-through form,
  // cut anywhere after the header, reads back as its complete rows.
  const std::string metrics_path = temp_path("torn_metrics.csv");
  {
    MetricsSidecarLog log(metrics_path, 42);
    for (std::size_t cell = 0; cell < 4; ++cell) {
      MetricsRegistry registry;
      registry.counter_add("engine/SE/steps", 8 + cell);
      registry.phase_record("cell", 1, 0, 0.25);
      log.append(cell, registry.snapshot());
    }
  }
  const std::string metrics = read_file(metrics_path);
  expect_every_cut_reads_the_complete_rows(
      metrics, header_bytes(metrics, 2), "torn_metrics_copy.csv",
      [](const std::string& p) {
        std::vector<std::string> rows;
        for (const MetricsRow& r : read_metrics_sidecar(p)) {
          rows.push_back(std::to_string(r.cell) + " " + r.kind + " " + r.name +
                         " " + std::to_string(r.count));
        }
        return rows;
      });
  std::remove(metrics_path.c_str());

  const std::string quarantine_path = temp_path("torn_quarantine.csv");
  {
    QuarantineLog log(quarantine_path);
    for (std::size_t cell = 0; cell < 4; ++cell) {
      log.append(QuarantineRecord{cell, "class=0, rep=" + std::to_string(cell),
                                  "label \"" + std::to_string(cell) + "\"", 2,
                                  "injected fault, attempt 1"});
    }
  }
  const std::string quarantine = read_file(quarantine_path);
  expect_every_cut_reads_the_complete_rows(
      quarantine, header_bytes(quarantine, 1), "torn_quarantine_copy.csv",
      [](const std::string& p) { return read_quarantine(p); });
  std::remove(quarantine_path.c_str());
}

TEST(TornWrite, AStoreCutInsideItsHeaderIsRefused) {
  const std::string path = temp_path("torn_header_master.csv");
  ResultStore::open(path, generic_schema());
  const std::string header = read_file(path);
  std::remove(path.c_str());

  // The header goes down atomically, so a partial one is corruption, not a
  // fresh store: every cut, up to the one just before the column line's
  // newline, is refused.
  const std::string torn_path = temp_path("torn_header_copy.csv");
  for (std::size_t cut = 1; cut < header.size(); ++cut) {
    std::ofstream(torn_path, std::ios::binary) << header.substr(0, cut);
    try {
      ResultStore::open(torn_path, generic_schema());
      ADD_FAILURE() << "a header cut at byte " << cut << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated header"),
                std::string::npos)
          << "cut at byte " << cut << ": " << e.what();
    }
  }
  std::remove(torn_path.c_str());
}

TEST(TornWriteDeathTest, HookTearsTheLineAndKillsTheProcessWithExit17) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = temp_path("torn_death.csv");
  {
    ResultStore store = ResultStore::open(path, generic_schema());
    store.append(StoreRow{0, {"0", "intact"}});
  }
  EXPECT_EXIT(
      {
        set_torn_write_hook([](std::size_t cell) -> std::optional<std::size_t> {
          if (cell == 1) return 5;
          return std::nullopt;
        });
        ResultStore store = ResultStore::open(path, generic_schema());
        store.append(StoreRow{1, {"10", "torn"}});
      },
      ::testing::ExitedWithCode(17), "");

  // The child persisted exactly 5 bytes of cell 1's line, no newline.
  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty());
  EXPECT_NE(content.back(), '\n');

  // Recovery: reopening drops the torn record and keeps the intact one.
  ResultStore store = ResultStore::open(path, generic_schema());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains(0));
  EXPECT_FALSE(store.contains(1));
  std::remove(path.c_str());
}

TEST(TornWriteDeathTest, AKillAfterACompleteStoreRowKeepsThatCellsMetrics) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const CampaignSpec spec = tiny_spec();
  const std::string path = temp_path("torn_after_row.csv");
  const std::string sidecar = default_metrics_path(path);
  std::remove(sidecar.c_str());
  CampaignRunOptions options;
  options.threads = 1;
  // More bytes than the line and its newline: the whole record persists,
  // then the process dies before anything else is written.
  options.fault_plan = FaultPlan::parse("torn-cell=3;torn-bytes=100000");
  EXPECT_EXIT(
      {
        ResultStore store = ResultStore::open(path, spec.store_schema());
        run_campaign(spec, store, options);
      },
      ::testing::ExitedWithCode(17), "");

  EXPECT_TRUE(ResultStore::load(path).contains(3));
  // The resume never reruns a stored cell, so its metrics must already be
  // in the sidecar: they are written before the store row.
  std::size_t rows = 0;
  for (const MetricsRow& r : read_metrics_sidecar(sidecar)) rows += r.cell == 3;
  EXPECT_GT(rows, 0u);
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(FaultCampaign, ResumeOverATornMetricsSidecarMatchesTheCleanRun) {
  const CampaignSpec spec = tiny_spec();
  const std::string clean = clean_canonical(spec);
  const std::string path = temp_path("resume_torn_metrics.csv");
  const std::string sidecar = default_metrics_path(path);
  std::remove(sidecar.c_str());

  CampaignRunOptions options;
  options.max_cells = 3;  // simulate a kill after three cells
  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    run_campaign(spec, store, options);
  }
  // Tear the sidecar's last row in half, as a kill mid-append leaves it.
  const std::string text = read_file(sidecar);
  const std::size_t last = text.rfind('\n', text.size() - 2) + 1;
  std::ofstream(sidecar, std::ios::binary)
      << text.substr(0, last + (text.size() - last) / 2);

  options.max_cells = 0;
  ResultStore store = ResultStore::open(path, spec.store_schema());
  const CampaignRunSummary resumed = run_campaign(spec, store, options);
  EXPECT_EQ(resumed.resumed_cells, 3u);
  EXPECT_EQ(canonical_text(store), clean);
  // The finalized sidecar is whole again.
  EXPECT_EQ(read_file(sidecar).back(), '\n');
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

// --- Degraded-mode analysis -------------------------------------------------

TEST(DegradedReport, NamesMissingCellsAndStaysByteDeterministic) {
  const CampaignSpec spec = tiny_spec();
  const std::string path = temp_path("degraded_store.csv");
  const std::string sidecar = default_quarantine_path(path);

  CampaignRunOptions options;
  options.retry_backoff_ms = 1;
  options.fault_plan =
      FaultPlan::parse("throw-cells=2,5;throw-attempts=all");
  {
    ResultStore store = ResultStore::open(path, spec.store_schema());
    const CampaignRunSummary summary = run_campaign(spec, store, options);
    ASSERT_EQ(summary.failed_cells, 2u);
  }

  const ResultStore store = ResultStore::load(path);
  const CampaignDataset dataset = build_dataset(store);
  EXPECT_EQ(dataset.expected_classes, 2u);
  EXPECT_EQ(dataset.expected_reps, 2u);
  EXPECT_EQ(dataset.expected_schedulers.size(), 2u);
  EXPECT_EQ(dataset.expected_cells(), 8u);

  const Table missing = missing_cells_table(dataset);
  EXPECT_GT(missing.rows(), 0u);

  ReportOptions report_options;
  report_options.bootstrap.resamples = 50;
  report_options.quarantined = read_quarantine(sidecar);
  report_options.quarantine_source = sidecar;
  ASSERT_EQ(report_options.quarantined.size(), 2u);

  auto render = [&]() {
    std::ostringstream os;
    write_report(os, dataset, report_options, ReportFormat::kMarkdown);
    return os.str();
  };
  const std::string report = render();
  // A degraded store must produce a complete report (no throw), flag the
  // gap explicitly, and render byte-identically on every invocation.
  EXPECT_NE(report.find("## Missing cells"), std::string::npos);
  EXPECT_NE(report.find("quarantined"), std::string::npos);
  EXPECT_EQ(report, render());

  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

TEST(DegradedReport, CompleteStoresCarryNoMissingCellsSection) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store = ResultStore::in_memory(spec.store_schema());
  run_campaign(spec, store, {});

  const CampaignDataset dataset = build_dataset(store);
  EXPECT_EQ(dataset.expected_cells(), 8u);
  EXPECT_EQ(missing_cells_table(dataset).rows(), 0u);

  ReportOptions options;
  options.bootstrap.resamples = 50;
  std::ostringstream os;
  write_report(os, dataset, options, ReportFormat::kMarkdown);
  EXPECT_EQ(os.str().find("## Missing cells"), std::string::npos);
}

}  // namespace
}  // namespace sehc
