// Campaign subsystem: sharded, resumable, persisted experiment sweeps.
//
// A CampaignSpec declares a (workload class x repetition x scheduler) grid
// with per-cell budgets and optional anytime-curve capture; its content
// hash keys a ResultStore. run_campaign() executes only the cells of the
// requested shard that the store does not already contain, so a campaign
// killed mid-run resumes where it stopped, and shards run on independent
// processes/machines compose: every cell's seeds are pure functions of its
// grid coordinates, so the merged canonical output of any decomposition is
// byte-identical to one uninterrupted single-process run.
//
// Determinism contract: with an iteration budget (time_budget_seconds ==
// 0), every record field except `seconds` is a pure function of
// (spec, cell); curves are captured on the iteration axis. With a
// wall-clock budget (the fig5-7 specs), makespans and curves depend on
// real time — such campaigns still shard/resume/persist, but byte-stable
// merging is only guaranteed per already-completed cell.
//
// The lower run_store_grid() layer drives any cell function that yields a
// record row (the workload-metrics explorer persists through it); the
// scheduler-aware run_campaign() builds on top.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/fault.h"
#include "exp/result_store.h"
#include "exp/sweep.h"
#include "obs/metrics_sidecar.h"
#include "workload/params.h"

namespace sehc {

/// One workload-class axis point. `params.seed` is only used when the spec
/// has a single repetition (so the fig5-7 and baselines specs can pin their
/// exact instance); with more repetitions every instance seed is derived
/// from the (class, repetition) coordinates.
struct CampaignClass {
  std::string name;
  WorkloadParams params;
};

/// Declarative description of a campaign. The grid is
/// class x repetition x scheduler (row-major, class slowest).
struct CampaignSpec {
  std::string name = "campaign";
  std::vector<CampaignClass> classes;
  /// Names from the scheduler registry (scheduler_names(): "SE", "GA",
  /// "GSA", "HEFT", ..., and SE with parameters such as "SE[Y=9]"; see
  /// find_scheduler); every cell builds its engine with
  /// make_search_engine.
  std::vector<std::string> schedulers;
  /// Seeded repetitions per (class, scheduler).
  std::size_t repetitions = 3;
  /// Per-cell iteration budget (SE iterations == GA generations; each
  /// scheduler runs iterations x its registry steps_per_iteration steps:
  /// SA x50, tabu/random x10, everything else x1).
  std::size_t iterations = 150;
  /// When > 0, every cell runs under this wall-clock budget instead of the
  /// iteration budget (Figs. 5-7); one-shot schedulers run their single
  /// step and show up as flat baselines.
  double time_budget_seconds = 0.0;
  /// When > 0, every cell runs its searcher under this evaluator-trial
  /// budget — the first apples-to-apples equal-evaluation-count comparison
  /// across all searchers (each one stops once its cumulative trial count
  /// reaches the budget; steps are atomic, so the final step may overshoot).
  /// One-shot schedulers consume 0 trials and record flat curves;
  /// `iterations` is ignored.
  /// Deterministic like the iteration budget: curves sample on the evals
  /// axis and shards merge byte-for-byte.
  std::size_t eval_budget = 0;
  /// Anytime samples persisted per record (0 = no curve). Step-budget cells
  /// sample on each searcher's own step axis (deterministic; for SE/GA/GSA
  /// that axis is `iterations` literally, for SA/tabu/random it is their
  /// scaled step count, so shared-grid tables read as equal budget
  /// *fractions*); eval-budget cells sample on the shared evals axis;
  /// time-budget cells sample on the wall-clock axis.
  std::size_t curve_points = 0;
  std::uint64_t base_seed = 42;

  /// The sweep grid: class x rep x scheduler.
  SweepGrid grid() const;

  /// Canonical one-record-per-line serialization of every semantic field;
  /// the store identity is content_hash64(canonical_string()).
  std::string canonical_string() const;
  std::uint64_t hash() const;

  /// Store layout for this spec's records:
  /// class,scheduler,rep,workload_seed,scheduler_seed,makespan,lower_bound,
  /// evals,curve,seconds — with `seconds` volatile. (`evals` arrived with
  /// the stepwise-engine rewire; stores written before it fail loudly on
  /// open/merge instead of silently mixing layouts.)
  StoreSchema store_schema() const;

  /// Throws sehc::Error if the spec is malformed (empty axes, unknown or
  /// duplicate scheduler, both a time and an eval budget, ...).
  void validate() const;
};

/// Deterministic partition of grid cells across `count` shards: shard i
/// owns every cell with index % count == i (round-robin keeps per-shard
/// cost balanced when expensive classes cluster in cell order).
struct ShardPlan {
  std::size_t index = 0;
  std::size_t count = 1;

  bool owns(std::size_t cell) const { return cell % count == index; }

  /// The owned cell indices among `num_cells`, ascending.
  std::vector<std::size_t> cells(std::size_t num_cells) const;

  /// Throws sehc::Error unless count >= 1 and index < count.
  void validate() const;

  /// Parses the CLI form "I/N" (e.g. "0/4"); nullopt unless both are
  /// whole numbers with I < N. Shared by every --shard flag.
  static std::optional<ShardPlan> parse(std::string_view text);
};

/// One typed campaign record (a parsed StoreRow).
struct CampaignRecord {
  std::size_t cell = 0;
  std::string class_name;
  std::string scheduler;
  std::size_t repetition = 0;
  std::uint64_t workload_seed = 0;
  std::uint64_t scheduler_seed = 0;
  double makespan = 0.0;
  double lower_bound = 0.0;
  /// Evaluator trials the cell's searcher consumed (0 for one-shot
  /// schedulers like HEFT). Deterministic for step/eval budgets, so
  /// equal-evals grids are auditable from the store alone.
  std::uint64_t evals = 0;
  /// Anytime samples on the spec's grid (empty when curve_points == 0;
  /// +infinity for grid points before the first improvement).
  std::vector<double> curve;
  double seconds = 0.0;  // wall clock; volatile (not in canonical output)

  StoreRow to_row() const;
  static CampaignRecord from_row(const StoreRow& row);
};

/// Per-attempt execution context handed to a cell's row function. The
/// deadline is armed from CampaignRunOptions::cell_timeout_seconds; engine
/// drivers thread it into run_anytime so runaway cells raise TimeoutError
/// instead of wedging the ThreadPool.
struct CellContext {
  /// 0-based execution attempt (0 = first try).
  std::size_t attempt = 0;
  /// Watchdog for this attempt; unlimited when no cell timeout is set.
  Deadline deadline;
};

struct CampaignRunOptions {
  std::size_t threads = 1;
  ShardPlan shard;
  /// Stop after completing this many NEW cells (0 = no limit). Used by the
  /// resume tests and the CI interrupted-shard check; because pending cells
  /// are taken in ascending cell order, a truncated run plus a resume run
  /// produce exactly the records of one uninterrupted run.
  std::size_t max_cells = 0;
  /// Called after each completed cell with (completed, pending_total).
  std::function<void(std::size_t, std::size_t)> progress;
  /// As `progress`, with the cells quarantined so far as a third argument.
  std::function<void(std::size_t, std::size_t, std::size_t)>
      progress_quarantined;

  /// Extra executions after a failed first attempt. Retries re-run the
  /// identical deterministic computation (cell seeds are pure functions of
  /// coordinates), so a retry that succeeds yields the exact record the
  /// first attempt would have — transient faults never perturb results.
  std::size_t cell_retries = 0;
  /// Per-attempt watchdog (seconds; 0 = none). Cooperative: checked
  /// between engine steps, so preemption waits for the running step.
  double cell_timeout_seconds = 0.0;
  /// Base backoff before retry r (0-based) sleeps backoff * 2^r ms.
  std::size_t retry_backoff_ms = 50;
  /// Fail fast: the first cell failure aborts the run (no retries, no
  /// quarantine), rethrown with the cell's coordinates attached.
  bool strict = false;
  /// Deterministic chaos injection (tests/CI); empty injects nothing.
  FaultPlan fault_plan;
  /// Quarantine sidecar path; empty derives `<store path>.failed.csv` for
  /// file-backed stores (in-memory stores keep records only in the
  /// summary).
  std::string quarantine_path;
  /// Metrics sidecar path; empty derives `<store path>.metrics.csv` for
  /// file-backed stores (in-memory stores aggregate without a file). Every
  /// cell runs inside its own MetricsRegistry (spans + engine counters);
  /// the snapshot's deterministic columns are pure functions of
  /// (spec, cell), so sidecars shard/merge like the store itself.
  std::string metrics_path;
  /// Resolves a human label for quarantine records (e.g.
  /// "class=low-low-0.1 rep=2 scheduler=GA"); run_campaign installs one.
  std::function<std::string(const SweepCell&)> cell_label;
};

struct CampaignRunSummary {
  std::size_t total_cells = 0;     // whole grid
  std::size_t shard_cells = 0;     // owned by this shard
  std::size_t resumed_cells = 0;   // already in the store, skipped
  std::size_t executed_cells = 0;  // newly computed this run
  std::size_t failed_cells = 0;    // quarantined after exhausting retries
  std::size_t retried_cells = 0;   // succeeded on a retry attempt
  double seconds = 0.0;            // wall clock of this run
  /// Quarantined cells, sorted by cell index.
  std::vector<QuarantineRecord> quarantined;
  /// Sidecar the quarantine was written to (empty for in-memory logs).
  std::string quarantine_path;
  /// Per-cell metrics recorded this run (loaded + appended; sorted and
  /// deduped). Quarantined cells still record their attempt spans.
  std::vector<MetricsRow> metrics;
  /// Sidecar the metrics were written to (empty for in-memory stores).
  std::string metrics_path;
};

/// Generic sharded/resumable grid driver: for every owned cell missing from
/// `store`, runs `row_fn` and appends (cell, fields). The store's schema
/// decides identity; callers hash their own spec into it.
///
/// Failure isolation: a throwing cell no longer aborts the sweep. It is
/// retried cell_retries times with exponential backoff, then quarantined to
/// the sidecar (and counted in failed_cells) while the remaining cells keep
/// running. executed_cells counts only cells that persisted a record, so a
/// later run resumes exactly the quarantined cells. `strict` restores the
/// historical fail-fast behavior. A cell's metrics rows are appended before
/// its record, so every stored cell has its metrics; a failed store write
/// fails the run rather than quarantining the cell.
CampaignRunSummary run_store_grid(
    const SweepGrid& grid, ResultStore& store, const CampaignRunOptions& options,
    std::uint64_t base_seed,
    const std::function<std::vector<std::string>(const SweepCell&,
                                                 const CellContext&)>& row_fn);

/// The scheduler campaign driver. The store must have been opened with
/// spec.store_schema(). Cells validate their schedules before persisting.
CampaignRunSummary run_campaign(const CampaignSpec& spec, ResultStore& store,
                                const CampaignRunOptions& options);

/// All records of a campaign store, sorted by cell index.
/// Aggregation (means, CIs, win/loss, crossings, profiles) lives in the
/// analysis subsystem: build_dataset() + the table builders of
/// analysis/report.h consume these records.
std::vector<CampaignRecord> campaign_records(const ResultStore& store);

// --- Built-in campaign configurations --------------------------------------

/// Names accepted by make_builtin_campaign, in presentation order.
std::vector<std::string> builtin_campaign_names();

/// Returns a named built-in campaign:
///   paper-class-grid    the paper's 8-class SE-vs-GA grid (conn x het x CCR,
///                       3 seeds) under an equal iteration budget;
///   equal-evals-grid    the same 8 classes, all six stepwise searchers
///                       (SE/GA/GSA/SA/Tabu/Random), 5 seeds, under an
///                       equal evaluator-trial budget with 20-point
///                       evals-axis curves — the first apples-to-apples
///                       equal-evaluation comparison across every searcher;
///   scaled-class-grid   the same axes at campaign scale: 27 classes
///                       (3 conn x 3 het x 3 CCR), 10 seeds, SE/GA/HEFT —
///                       ~34x the paper grid's cell count;
///   consistency-grid    machine-consistency scenarios (3 consistency x
///                       2 conn x 2 CCR), 10 seeds, SE/GA/HEFT/MinMin;
///   fig5-anytime /      the Figure 5-7 SE-vs-GA wall-clock comparisons as
///   fig6-anytime /      single-class campaigns with 20-point curve capture
///   fig7-anytime        (sehc_report curves renders the figure);
///   baselines           all 13 registered schedulers on the three figure
///                       workloads and paper_small, 1 repetition at seed 42;
///   se-y-study          SE's Y in {5, 9, 12} on the large low- and
///                       high-heterogeneity instances (Figure 4);
///   se-bias-study       SE's bias B in {-0.3, -0.2, -0.1, 0, 0.05, 0.1} on
///                       paper_small and the large high-connectivity
///                       instance (§4.4);
///   se-init-study       SE from a random or a HEFT start x Y in {2, 5, all}
///                       at B = 0.05, with HEFT as the baseline.
/// The three SE studies run 5 derived instances per class; `--seeds 1`
/// keeps each class's seed-42 instance.
CampaignSpec make_builtin_campaign(const std::string& name);

}  // namespace sehc
