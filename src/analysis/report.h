// Report generator over campaign stores: turns merged ResultStores into
// publication-grade comparison tables (per-class mean +/- bootstrap CI,
// pairwise win/loss/tie with sign and Wilcoxon p-values, SE-vs-GA crossing
// points on the mean anytime curve, and Dolan-Moré performance profiles),
// rendered as Markdown or CSV.
//
// Every table is a byte-deterministic function of the store's canonical
// records and the ReportOptions: records are consumed in sorted cell order,
// bootstrap streams are seeded from stable group identity, and no
// wall-clock or environment data enters the output. Reports are therefore
// diffable, and CI cmp's a generated report against a committed golden.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/curves.h"
#include "analysis/stats.h"
#include "core/table.h"
#include "exp/campaign.h"
#include "exp/result_store.h"

namespace sehc {

enum class ReportFormat { kMarkdown, kCsv };

/// Parses "md" / "markdown" / "csv"; throws sehc::Error otherwise.
ReportFormat parse_report_format(const std::string& name);

/// Renders one table in the requested format.
void write_table(std::ostream& os, const Table& table, ReportFormat format);

/// All repetitions of one (class, scheduler) pair, in ascending repetition
/// order (which is also cell order, so the layout is decomposition-proof).
struct CampaignGroup {
  std::string class_name;
  std::string scheduler;
  std::vector<std::size_t> reps;
  std::vector<double> makespans;
  std::vector<double> lower_bounds;
  /// Sampled anytime curves (empty vectors when the spec captured none).
  std::vector<std::vector<double>> curves;
};

/// Campaign records grouped for analysis. Built from any campaign store —
/// including partially-filled shard stores; pairwise statistics intersect
/// repetitions, so missing cells shrink `n` instead of poisoning tables.
struct CampaignDataset {
  StoreSchema schema;
  std::vector<std::string> classes;     // first-appearance (cell) order
  std::vector<std::string> schedulers;  // first-appearance (cell) order
  std::vector<CampaignGroup> groups;    // class-major, scheduler-minor
  /// Anytime samples per record (0 = the spec captured no curves).
  std::size_t curve_points = 0;
  /// Shared budget grid of the curves: the iteration or wall-clock grid
  /// reconstructed from the store's spec line, or a 1..N index grid when
  /// the spec line is not parseable. Empty when curve_points == 0.
  std::vector<double> grid;
  /// Curve x-axis label: "iterations", "seconds" or "sample".
  std::string axis = "sample";

  /// Expected grid shape parsed from the store's spec line ("classes=",
  /// "reps=", "schedulers="); 0/empty when the line does not carry them.
  /// Lets write_report say exactly what a degraded store is missing.
  std::size_t expected_classes = 0;
  std::size_t expected_reps = 0;
  std::vector<std::string> expected_schedulers;

  /// classes x reps x schedulers when the spec line carries the full grid
  /// shape, 0 when unknown.
  std::size_t expected_cells() const;

  bool has_curves() const { return curve_points > 0; }
  const CampaignGroup* find_group(const std::string& class_name,
                                  const std::string& scheduler) const;
  /// The group's curves as a CurveBundle on the shared grid.
  CurveBundle bundle(const CampaignGroup& group) const;
};

/// Groups a campaign store's records (throws unless kind == "campaign"). A
/// store without records (a crash inside its first one) gives a dataset
/// with no groups, whose expected grid still comes from the spec line.
CampaignDataset build_dataset(const ResultStore& store);

/// True when some class has challenger and baseline records sharing at
/// least one repetition — the precondition of the head-to-head and
/// crossing tables. write_report degrades to a note when it is false, so
/// partial shard stores never fail mid-output.
bool has_paired_records(const CampaignDataset& dataset,
                        const std::string& challenger,
                        const std::string& baseline);

struct ReportOptions {
  BootstrapOptions bootstrap;
  /// Tau breakpoints tabulated by the performance profile.
  std::vector<double> profile_taus{1.0, 1.01, 1.02, 1.05,
                                   1.1, 1.2,  1.5,  2.0};
  /// The pair the crossing and head-to-head tables compare: "when does
  /// `challenger` overtake `baseline`".
  std::string challenger = "SE";
  std::string baseline = "GA";

  /// Quarantined cells (loaded from `<store>.failed.csv` sidecars) listed
  /// in the report's missing-cells section. Rendered sorted by cell index,
  /// so the report stays byte-deterministic whatever the load order.
  std::vector<QuarantineRecord> quarantined;
  /// Where the quarantine records came from (sidecar path(s)); echoed in
  /// the missing-cells section.
  std::string quarantine_source;

  /// Campaign metrics rows (loaded from `<store>.metrics.csv` sidecars),
  /// rendered as the Timing section aggregated by (kind, name). Counts and
  /// rounds are deterministic; the volatile ms column only appears with
  /// show_timings, so default reports stay byte-comparable. (No source
  /// path is echoed: the section must not depend on where the sidecar
  /// happened to live, or golden comparisons would break.)
  std::vector<MetricsRow> metrics;
  /// Adds the wall-clock ms column to the Timing table (volatile output;
  /// never enabled when generating goldens).
  bool show_timings = false;
};

/// The Timing section's table: metrics rows aggregated over cells by
/// (kind, name) — name, kind, cells, count, rounds, and (with include_ms)
/// total wall-clock ms. All columns but ms are deterministic functions of
/// the sidecar's canonical rows.
Table timing_table(const std::vector<MetricsRow>& rows, bool include_ms);

/// Per-(class, scheduler) means with seeded-bootstrap confidence intervals:
/// class, scheduler, n, mean, ci_lo, ci_hi, mean_vs_lb. The bootstrap seed
/// of each row is derived from the (class, scheduler) names, so the table
/// is invariant to record order, thread count and shard composition.
Table summary_table(const CampaignDataset& dataset,
                    const ReportOptions& options);

/// Per-class win/loss/tie counts for every scheduler pair over the class's
/// common repetitions, with paired sign-test and Wilcoxon p-values.
Table win_loss_table(const CampaignDataset& dataset);

/// Head-to-head challenger-vs-baseline table (the §5.3 comparison shape):
/// class, n, means, ratio (sum/sum, < 1 means the challenger found shorter
/// schedules), win record and paired p-values. Classes missing either
/// scheduler are skipped; throws if no class has both.
Table pair_comparison_table(const CampaignDataset& dataset,
                            const ReportOptions& options);

/// Per-class first-crossing table over the mean anytime curves: at which
/// budget does the challenger durably overtake the baseline, the means at
/// that point, the final means, and the AUC ratio. Requires curve capture
/// (throws when the store has none).
Table crossing_table(const CampaignDataset& dataset,
                     const ReportOptions& options);

/// The anytime curves themselves (Figures 5-7 from the fig*-anytime
/// stores): one row per (class, grid point) with columns class, the
/// dataset's axis, then one per scheduler holding its mean curve over the
/// class's repetitions at 2 decimals — "-" where no solution is known yet.
/// Throws when the store has no curves.
Table curve_table(const CampaignDataset& dataset);

/// Per-(class, scheduler) record counts for every group missing
/// repetitions relative to the spec line's expected grid — including
/// groups with no records at all (n = 0). Empty when the store is complete
/// or the spec line carries no grid shape. Classes with no records anywhere
/// cannot be named (the spec line stores only their count); write_report
/// reports their count in a note.
Table missing_cells_table(const CampaignDataset& dataset);

/// Dolan-Moré performance profile over the whole grid: one row per
/// scheduler, one column per tau, cells = fraction of (class, repetition)
/// problems solved within tau x the problem's best cost. No rows for a
/// dataset without records.
Table profile_table(const CampaignDataset& dataset,
                    const ReportOptions& options);

/// The full report: header metadata plus every applicable section above.
/// Sections that need schedulers the store lacks (head-to-head, crossings)
/// degrade to a one-line note instead of failing, so `full` works on any
/// campaign store.
void write_report(std::ostream& os, const CampaignDataset& dataset,
                  const ReportOptions& options, ReportFormat format);

}  // namespace sehc
