#include "analysis/report.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "core/error.h"
#include "exp/anytime.h"

namespace sehc {

ReportFormat parse_report_format(const std::string& name) {
  if (name == "md" || name == "markdown") return ReportFormat::kMarkdown;
  if (name == "csv") return ReportFormat::kCsv;
  throw Error("parse_report_format: expected md|csv, got '" + name + "'");
}

void write_table(std::ostream& os, const Table& table, ReportFormat format) {
  if (format == ReportFormat::kMarkdown) table.write_markdown(os);
  else table.write_csv(os);
}

namespace {

/// Value of `key=` in a spec line ("" when absent). Matches whole keys
/// only: "iters=" does not match "boot_iters=".
std::string spec_line_value(const std::string& line, const std::string& key) {
  const std::string token = key + "=";
  std::string::size_type pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (pos == 0 || line[pos - 1] == ' ') {
      const auto start = pos + token.size();
      const auto end = line.find(' ', start);
      return line.substr(start,
                         end == std::string::npos ? end : end - start);
    }
    pos += token.size();
  }
  return "";
}

double parse_double_or(const std::string& text, double fallback) {
  if (text.empty()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  return (end && *end == '\0') ? value : fallback;
}

/// Paired repetitions of two groups (both rep lists are ascending).
struct PairedSamples {
  std::vector<std::size_t> reps;
  std::vector<double> a;
  std::vector<double> b;
  /// Positions of the paired reps inside each group's arrays.
  std::vector<std::size_t> a_pos;
  std::vector<std::size_t> b_pos;
};

PairedSamples paired_samples(const CampaignGroup& a, const CampaignGroup& b) {
  PairedSamples out;
  std::size_t i = 0, j = 0;
  while (i < a.reps.size() && j < b.reps.size()) {
    if (a.reps[i] < b.reps[j]) ++i;
    else if (b.reps[j] < a.reps[i]) ++j;
    else {
      out.reps.push_back(a.reps[i]);
      out.a.push_back(a.makespans[i]);
      out.b.push_back(b.makespans[j]);
      out.a_pos.push_back(i);
      out.b_pos.push_back(j);
      ++i;
      ++j;
    }
  }
  return out;
}

/// Repetitions present in every one of `groups` (all rep lists ascending).
std::vector<std::size_t> common_reps(
    const std::vector<const CampaignGroup*>& groups) {
  SEHC_CHECK(!groups.empty(), "common_reps: no groups");
  std::vector<std::size_t> reps = groups.front()->reps;
  for (std::size_t g = 1; g < groups.size(); ++g) {
    std::vector<std::size_t> next;
    std::set_intersection(reps.begin(), reps.end(),
                          groups[g]->reps.begin(), groups[g]->reps.end(),
                          std::back_inserter(next));
    reps = std::move(next);
  }
  return reps;
}

double makespan_at_rep(const CampaignGroup& group, std::size_t rep) {
  const auto it =
      std::lower_bound(group.reps.begin(), group.reps.end(), rep);
  SEHC_ASSERT(it != group.reps.end() && *it == rep);
  return group.makespans[static_cast<std::size_t>(it - group.reps.begin())];
}

std::string wlt_string(std::size_t wins, std::size_t losses,
                       std::size_t ties) {
  return std::to_string(wins) + "/" + std::to_string(losses) + "/" +
         std::to_string(ties);
}

/// Decimals of a curve-grid coordinate: seconds are fractional, step and
/// eval counts are whole.
int axis_precision(const CampaignDataset& dataset) {
  return dataset.axis == "seconds" ? 3 : 0;
}

double mean_of(std::span<const double> values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

std::size_t CampaignDataset::expected_cells() const {
  if (expected_classes == 0 || expected_reps == 0 ||
      expected_schedulers.empty()) {
    return 0;
  }
  return expected_classes * expected_reps * expected_schedulers.size();
}

const CampaignGroup* CampaignDataset::find_group(
    const std::string& class_name, const std::string& scheduler) const {
  for (const CampaignGroup& group : groups) {
    if (group.class_name == class_name && group.scheduler == scheduler) {
      return &group;
    }
  }
  return nullptr;
}

CurveBundle CampaignDataset::bundle(const CampaignGroup& group) const {
  CurveBundle bundle;
  bundle.grid = grid;
  bundle.rows = group.curves;
  bundle.validate();
  return bundle;
}

CampaignDataset build_dataset(const ResultStore& store) {
  const std::vector<CampaignRecord> records = campaign_records(store);

  CampaignDataset ds;
  ds.schema = store.schema();
  // A store cut inside its first record has none; its spec line still says
  // how many samples each record carries.
  ds.curve_points =
      records.empty()
          ? static_cast<std::size_t>(parse_double_or(
                spec_line_value(ds.schema.spec_line, "curve_points"), 0.0))
          : records.front().curve.size();

  for (const CampaignRecord& rec : records) {
    if (std::find(ds.classes.begin(), ds.classes.end(), rec.class_name) ==
        ds.classes.end()) {
      ds.classes.push_back(rec.class_name);
    }
    if (std::find(ds.schedulers.begin(), ds.schedulers.end(),
                  rec.scheduler) == ds.schedulers.end()) {
      ds.schedulers.push_back(rec.scheduler);
    }
    SEHC_CHECK(rec.curve.size() == ds.curve_points,
               "build_dataset: record in cell " + std::to_string(rec.cell) +
                   " has " + std::to_string(rec.curve.size()) +
                   " curve samples, expected " +
                   std::to_string(ds.curve_points));

    CampaignGroup* group = nullptr;
    for (CampaignGroup& g : ds.groups) {
      if (g.class_name == rec.class_name && g.scheduler == rec.scheduler) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      ds.groups.push_back({rec.class_name, rec.scheduler, {}, {}, {}, {}});
      group = &ds.groups.back();
    }
    // Records arrive in cell order, whose middle axis is the repetition, so
    // within a group repetitions are strictly ascending.
    SEHC_CHECK(group->reps.empty() || group->reps.back() < rec.repetition,
               "build_dataset: duplicate repetition " +
                   std::to_string(rec.repetition) + " for class '" +
                   rec.class_name + "', scheduler '" + rec.scheduler + "'");
    group->reps.push_back(rec.repetition);
    group->makespans.push_back(rec.makespan);
    group->lower_bounds.push_back(rec.lower_bound);
    group->curves.push_back(rec.curve);
  }

  // Expected grid shape from the spec line (absent tokens leave the fields
  // zero/empty — the missing-cells machinery then stays silent).
  ds.expected_classes = static_cast<std::size_t>(parse_double_or(
      spec_line_value(ds.schema.spec_line, "classes"), 0.0));
  ds.expected_reps = static_cast<std::size_t>(
      parse_double_or(spec_line_value(ds.schema.spec_line, "reps"), 0.0));
  {
    const std::string scheds =
        spec_line_value(ds.schema.spec_line, "schedulers");
    std::string::size_type pos = 0;
    while (pos < scheds.size()) {
      auto sep = scheds.find(';', pos);
      if (sep == std::string::npos) sep = scheds.size();
      if (sep > pos) ds.expected_schedulers.push_back(scheds.substr(pos, sep - pos));
      pos = sep + 1;
    }
  }

  if (ds.curve_points > 0) {
    // Rebuild the sampling grid the campaign layer used (exp/campaign.cpp:
    // time_grid over the wall-clock, evaluator-trial or iteration budget).
    // The budgets are echoed in the store's spec line; an unparseable line
    // degrades to a 1..N index grid rather than failing the analysis.
    const double budget = parse_double_or(
        spec_line_value(ds.schema.spec_line, "budget_s"), 0.0);
    const double evals = parse_double_or(
        spec_line_value(ds.schema.spec_line, "evals"), 0.0);
    const double iters = parse_double_or(
        spec_line_value(ds.schema.spec_line, "iters"), 0.0);
    if (budget > 0.0) {
      ds.axis = "seconds";
      ds.grid = time_grid(budget, ds.curve_points);
    } else if (evals > 0.0) {
      ds.axis = "evals";
      ds.grid = time_grid(evals, ds.curve_points);
    } else if (iters > 0.0) {
      // SE/GA/GSA step budgets equal `iters` literally; SA/tabu/random run
      // the comparison suite's scaled step counts, so for them this shared
      // grid reads as equal budget *fractions* (each sample i is best at
      // fraction i/N of the searcher's own step budget).
      ds.axis = "iterations";
      ds.grid = time_grid(iters, ds.curve_points);
    } else {
      ds.axis = "sample";
      ds.grid = time_grid(static_cast<double>(ds.curve_points),
                          ds.curve_points);
    }
  }
  return ds;
}

bool has_paired_records(const CampaignDataset& dataset,
                        const std::string& challenger,
                        const std::string& baseline) {
  for (const std::string& cls : dataset.classes) {
    const CampaignGroup* cg = dataset.find_group(cls, challenger);
    const CampaignGroup* bg = dataset.find_group(cls, baseline);
    if (cg && bg && !paired_samples(*cg, *bg).reps.empty()) return true;
  }
  return false;
}

Table summary_table(const CampaignDataset& dataset,
                    const ReportOptions& options) {
  Table table({"class", "scheduler", "n", "mean", "ci_lo", "ci_hi",
               "mean_vs_lb"});
  for (const std::string& cls : dataset.classes) {
    for (const std::string& sched : dataset.schedulers) {
      const CampaignGroup* group = dataset.find_group(cls, sched);
      if (group == nullptr) continue;
      // Seed from group identity, not table position: byte-identical under
      // any record ordering, thread count or shard composition.
      BootstrapOptions boot = options.bootstrap;
      boot.seed ^= content_hash64(cls + "\x1f" + sched);
      const ConfidenceInterval ci =
          bootstrap_mean_ci(group->makespans, boot);
      double vs_lb = 0.0;
      for (std::size_t i = 0; i < group->makespans.size(); ++i) {
        vs_lb += group->lower_bounds[i] > 0.0
                     ? group->makespans[i] / group->lower_bounds[i]
                     : 0.0;
      }
      vs_lb /= static_cast<double>(group->makespans.size());
      table.begin_row()
          .add(cls)
          .add(sched)
          .add(ci.n)
          .add(ci.mean, 2)
          .add(ci.lo, 2)
          .add(ci.hi, 2)
          .add(vs_lb, 3);
    }
  }
  return table;
}

Table win_loss_table(const CampaignDataset& dataset) {
  Table table({"class", "a", "b", "a_w/l/t", "sign_p", "wilcoxon_p"});
  for (const std::string& cls : dataset.classes) {
    std::vector<const CampaignGroup*> present;
    std::vector<std::string> names;
    for (const std::string& sched : dataset.schedulers) {
      if (const CampaignGroup* g = dataset.find_group(cls, sched)) {
        present.push_back(g);
        names.push_back(sched);
      }
    }
    // Repetitions intersect PER PAIR: in a partial shard store a third
    // scheduler sharing no seeds must not erase a fully-paired pair.
    for (std::size_t i = 0; i < present.size(); ++i) {
      for (std::size_t j = i + 1; j < present.size(); ++j) {
        const PairedSamples pairs = paired_samples(*present[i], *present[j]);
        if (pairs.reps.empty()) continue;
        // The sign test's tallies ARE the pair's win/loss/tie counts.
        const PairedTest sign = sign_test(pairs.a, pairs.b);
        const PairedTest wilcoxon = wilcoxon_signed_rank(pairs.a, pairs.b);
        table.begin_row()
            .add(cls)
            .add(names[i])
            .add(names[j])
            .add(wlt_string(sign.a_wins, sign.b_wins, sign.ties))
            .add(sign.p_value, 4)
            .add(wilcoxon.p_value, 4);
      }
    }
  }
  return table;
}

Table pair_comparison_table(const CampaignDataset& dataset,
                            const ReportOptions& options) {
  const std::string& c = options.challenger;
  const std::string& b = options.baseline;
  Table table({"class", "n", c + "_mean", b + "_mean", c + "/" + b,
               c + "_w/l/t", "sign_p", "wilcoxon_p"});
  for (const std::string& cls : dataset.classes) {
    const CampaignGroup* cg = dataset.find_group(cls, c);
    const CampaignGroup* bg = dataset.find_group(cls, b);
    if (cg == nullptr || bg == nullptr) continue;
    const PairedSamples pairs = paired_samples(*cg, *bg);
    if (pairs.reps.empty()) continue;
    double c_sum = 0.0, b_sum = 0.0;
    for (std::size_t i = 0; i < pairs.reps.size(); ++i) {
      c_sum += pairs.a[i];
      b_sum += pairs.b[i];
    }
    const double n = static_cast<double>(pairs.reps.size());
    const PairedTest sign = sign_test(pairs.a, pairs.b);
    const PairedTest wilcoxon = wilcoxon_signed_rank(pairs.a, pairs.b);
    table.begin_row()
        .add(cls)
        .add(pairs.reps.size())
        .add(c_sum / n, 1)
        .add(b_sum / n, 1)
        .add(c_sum / b_sum, 3)
        .add(wlt_string(sign.a_wins, sign.b_wins, sign.ties))
        .add(sign.p_value, 4)
        .add(wilcoxon.p_value, 4);
  }
  SEHC_CHECK(table.rows() > 0,
             "pair_comparison_table: no class has both '" + c + "' and '" +
                 b + "' records");
  return table;
}

Table crossing_table(const CampaignDataset& dataset,
                     const ReportOptions& options) {
  SEHC_CHECK(dataset.has_curves(),
             "crossing_table: store has no anytime curves (rerun the "
             "campaign with curve_points > 0)");
  const std::string& c = options.challenger;
  const std::string& b = options.baseline;
  const int x_precision = axis_precision(dataset);
  Table table({"class", "n", "crosses_at_" + dataset.axis, c + "@cross",
               b + "@cross", c + "_final", b + "_final", "auc_ratio"});
  for (const std::string& cls : dataset.classes) {
    const CampaignGroup* cg = dataset.find_group(cls, c);
    const CampaignGroup* bg = dataset.find_group(cls, b);
    if (cg == nullptr || bg == nullptr) continue;
    const PairedSamples pairs = paired_samples(*cg, *bg);
    if (pairs.reps.empty()) continue;

    // Mean curves over the PAIRED repetitions only, so both sides average
    // the same workload instances.
    CurveBundle cb{dataset.grid, {}}, bb{dataset.grid, {}};
    for (std::size_t i = 0; i < pairs.reps.size(); ++i) {
      cb.rows.push_back(cg->curves[pairs.a_pos[i]]);
      bb.rows.push_back(bg->curves[pairs.b_pos[i]]);
    }
    const std::vector<double> c_mean = mean_curve(cb);
    const std::vector<double> b_mean = mean_curve(bb);
    const Crossing crossing = first_crossing(dataset.grid, c_mean, b_mean);
    const double c_auc = curve_auc(dataset.grid, c_mean);
    const double b_auc = curve_auc(dataset.grid, b_mean);
    const double auc_ratio = c_auc / b_auc;

    table.begin_row().add(cls).add(pairs.reps.size());
    if (crossing.crosses) {
      table.add(crossing.x, x_precision)
          .add(c_mean[crossing.index], 1)
          .add(b_mean[crossing.index], 1);
    } else {
      table.add("-").add("-").add("-");
    }
    table.add(mean_of(pairs.a), 1).add(mean_of(pairs.b), 1);
    if (std::isfinite(auc_ratio)) table.add(auc_ratio, 3);
    else table.add("-");
  }
  SEHC_CHECK(table.rows() > 0,
             "crossing_table: no class has both '" + c + "' and '" + b +
                 "' records");
  return table;
}

Table curve_table(const CampaignDataset& dataset) {
  SEHC_CHECK(dataset.has_curves(),
             "curve_table: store has no anytime curves (rerun the campaign "
             "with curve_points > 0)");
  std::vector<std::string> headers{"class", dataset.axis};
  headers.insert(headers.end(), dataset.schedulers.begin(),
                 dataset.schedulers.end());
  Table table(std::move(headers));
  const int x_precision = axis_precision(dataset);
  for (const std::string& cls : dataset.classes) {
    // A scheduler without records in this class (a partial shard store)
    // keeps an empty mean and prints "-" throughout.
    std::vector<std::vector<double>> means;
    for (const std::string& sched : dataset.schedulers) {
      const CampaignGroup* group = dataset.find_group(cls, sched);
      means.push_back(group == nullptr ? std::vector<double>{}
                                       : mean_curve(dataset.bundle(*group)));
    }
    for (std::size_t i = 0; i < dataset.grid.size(); ++i) {
      table.begin_row().add(cls).add(dataset.grid[i], x_precision);
      for (const std::vector<double>& mean : means) {
        if (mean.empty() || std::isinf(mean[i])) table.add("-");
        else table.add(mean[i], 2);
      }
    }
  }
  return table;
}

Table missing_cells_table(const CampaignDataset& dataset) {
  Table table({"class", "scheduler", "n", "expected", "missing"});
  if (dataset.expected_reps == 0) return table;
  const std::vector<std::string>& schedulers =
      dataset.expected_schedulers.empty() ? dataset.schedulers
                                          : dataset.expected_schedulers;
  for (const std::string& cls : dataset.classes) {
    for (const std::string& sched : schedulers) {
      const CampaignGroup* group = dataset.find_group(cls, sched);
      const std::size_t n = group == nullptr ? 0 : group->reps.size();
      if (n >= dataset.expected_reps) continue;
      table.begin_row()
          .add(cls)
          .add(sched)
          .add(n)
          .add(dataset.expected_reps)
          .add(dataset.expected_reps - n);
    }
  }
  return table;
}

Table profile_table(const CampaignDataset& dataset,
                    const ReportOptions& options) {
  std::vector<std::string> headers{"scheduler", "n"};
  for (const double tau : options.profile_taus) {
    headers.push_back("tau=" + format_fixed(tau, 2));
  }
  Table table(std::move(headers));
  if (dataset.schedulers.empty()) return table;

  // Problems are (class, repetition) pairs for which EVERY scheduler of the
  // grid has a record, so each cost row is complete.
  std::vector<std::vector<double>> costs;
  for (const std::string& cls : dataset.classes) {
    std::vector<const CampaignGroup*> groups;
    for (const std::string& sched : dataset.schedulers) {
      const CampaignGroup* g = dataset.find_group(cls, sched);
      if (g != nullptr) groups.push_back(g);
    }
    if (groups.size() != dataset.schedulers.size()) continue;
    for (const std::size_t rep : common_reps(groups)) {
      std::vector<double> row;
      row.reserve(groups.size());
      for (const CampaignGroup* g : groups) {
        row.push_back(makespan_at_rep(*g, rep));
      }
      costs.push_back(std::move(row));
    }
  }
  const PerformanceProfile profile =
      performance_profile(dataset.schedulers, costs, options.profile_taus);
  for (std::size_t s = 0; s < profile.solvers.size(); ++s) {
    table.begin_row().add(profile.solvers[s]).add(profile.problems);
    for (std::size_t t = 0; t < profile.taus.size(); ++t) {
      table.add(profile.fraction[s][t], 3);
    }
  }
  return table;
}

Table timing_table(const std::vector<MetricsRow>& rows, bool include_ms) {
  std::vector<std::string> headers{"name", "kind", "cells", "count", "rounds"};
  if (include_ms) headers.push_back("ms");
  Table table(std::move(headers));

  // Aggregate over cells by (kind, name); std::map gives the canonical
  // (kind-major, name-minor) row order whatever order the rows arrived in.
  struct Agg {
    std::size_t cells = 0;
    std::uint64_t count = 0;
    std::uint64_t rounds = 0;
    double ms = 0.0;
    std::uint64_t last_cell = 0;
    bool any_cell = false;
  };
  std::map<std::pair<std::string, std::string>, Agg> aggs;
  for (const MetricsRow& row : rows) {
    Agg& agg = aggs[{row.kind, row.name}];
    if (!agg.any_cell || agg.last_cell != row.cell) {
      agg.cells += 1;
      agg.last_cell = row.cell;
      agg.any_cell = true;
    }
    agg.count += row.count;
    agg.rounds += row.rounds;
    agg.ms += row.ms;
  }
  for (const auto& [key, agg] : aggs) {
    table.begin_row()
        .add(key.second)
        .add(key.first)
        .add(agg.cells)
        .add(agg.count)
        .add(agg.rounds);
    if (include_ms) table.add(agg.ms, 3);
  }
  return table;
}

namespace {

void section_heading(std::ostream& os, ReportFormat format,
                     const std::string& title, const std::string& slug) {
  if (format == ReportFormat::kMarkdown) os << "## " << title << "\n\n";
  else os << "# section: " << slug << '\n';
}

void note_line(std::ostream& os, ReportFormat format,
               const std::string& note) {
  if (format == ReportFormat::kMarkdown) os << "_" << note << "_\n";
  else os << "# note: " << note << '\n';
}

}  // namespace

void write_report(std::ostream& os, const CampaignDataset& dataset,
                  const ReportOptions& options, ReportFormat format) {
  std::size_t records = 0;
  for (const CampaignGroup& group : dataset.groups) {
    records += group.reps.size();
  }
  const std::string curve_desc =
      dataset.has_curves()
          ? std::to_string(dataset.curve_points) +
                " samples per record on the " + dataset.axis + " axis"
          : "none captured";

  if (format == ReportFormat::kMarkdown) {
    os << "# Campaign report\n\n";
    os << "- spec: `" << dataset.schema.spec_line << "`\n";
    os << "- spec hash: `" << hash_to_hex(dataset.schema.spec_hash) << "`\n";
    os << "- records: " << records << " (" << dataset.classes.size()
       << " classes x " << dataset.schedulers.size() << " schedulers)\n";
    os << "- anytime curves: " << curve_desc << "\n\n";
  } else {
    os << "# sehc-report v1\n";
    os << "# spec: " << dataset.schema.spec_line << '\n';
    os << "# spec_hash: " << hash_to_hex(dataset.schema.spec_hash) << '\n';
    os << "# records: " << records << '\n';
    os << "# curves: " << curve_desc << '\n';
  }

  // Missing-cells section: rendered only for degraded stores (fewer
  // records than the spec's expected grid, or quarantine records supplied)
  // so reports over complete stores stay byte-identical to their goldens.
  // Everything here is a deterministic function of the records and the
  // (sorted) quarantine list.
  const std::size_t expected = dataset.expected_cells();
  const bool incomplete = expected > 0 && records < expected;
  if (incomplete || !options.quarantined.empty()) {
    section_heading(os, format, "Missing cells", "missing-cells");
    if (incomplete) {
      note_line(os, format,
                std::to_string(expected - records) + " of " +
                    std::to_string(expected) +
                    " expected records are missing; every statistic below "
                    "uses the per-group n actually present");
      if (dataset.classes.size() < dataset.expected_classes) {
        note_line(os, format,
                  std::to_string(dataset.expected_classes -
                                 dataset.classes.size()) +
                      " of " + std::to_string(dataset.expected_classes) +
                      " classes have no records at all (their names are not "
                      "recoverable from the store)");
      }
      const Table missing = missing_cells_table(dataset);
      if (missing.rows() > 0) {
        os << '\n';
        write_table(os, missing, format);
      }
    }
    if (!options.quarantined.empty()) {
      if (incomplete) os << '\n';
      note_line(os, format,
                "quarantined cells" +
                    (options.quarantine_source.empty()
                         ? std::string()
                         : " (from " + options.quarantine_source + ")") +
                    ":");
      os << '\n';
      std::vector<QuarantineRecord> sorted = options.quarantined;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const QuarantineRecord& a,
                          const QuarantineRecord& b) { return a.cell < b.cell; });
      Table table({"cell", "coords", "label", "attempts", "error"});
      for (const QuarantineRecord& r : sorted) {
        table.begin_row()
            .add(r.cell)
            .add(r.coords)
            .add(r.label)
            .add(r.attempts)
            .add(r.error);
      }
      write_table(os, table, format);
    }
    os << '\n';
  }

  section_heading(os, format, "Summary (mean schedule length, " +
                                  format_fixed(
                                      options.bootstrap.confidence * 100.0,
                                      0) +
                                  "% bootstrap CI)",
                  "summary");
  write_table(os, summary_table(dataset, options), format);
  os << '\n';

  section_heading(os, format, "Win/loss/tie per class (paired seeds)",
                  "win-loss");
  const Table wlt = win_loss_table(dataset);
  if (wlt.rows() > 0) write_table(os, wlt, format);
  else note_line(os, format, "fewer than two schedulers share seeds");
  os << '\n';

  const bool has_pair =
      has_paired_records(dataset, options.challenger, options.baseline);

  section_heading(os, format,
                  options.challenger + " vs " + options.baseline +
                      " head-to-head (" + options.challenger + "/" +
                      options.baseline + " < 1 means " + options.challenger +
                      " found shorter schedules)",
                  "head-to-head");
  if (has_pair) {
    write_table(os, pair_comparison_table(dataset, options), format);
  } else {
    note_line(os, format, "store has no paired " + options.challenger +
                              " and " + options.baseline + " records");
  }
  os << '\n';

  // One crossing section per challenger: the configured one first, then
  // every other scheduler with curves (so multi-searcher stores — e.g. the
  // equal-evals grid — get tabu/annealing/GSA crossings, while two-method
  // stores render exactly the single section they always did).
  std::vector<std::string> challengers{options.challenger};
  for (const std::string& sched : dataset.schedulers) {
    if (sched != options.challenger && sched != options.baseline) {
      challengers.push_back(sched);
    }
  }
  for (const std::string& challenger : challengers) {
    ReportOptions pair_options = options;
    pair_options.challenger = challenger;
    section_heading(os, format,
                    "Crossing points (" + challenger + " durably overtakes " +
                        options.baseline + " on the mean anytime curve)",
                    "crossings-" + challenger);
    if (!dataset.has_curves()) {
      note_line(os, format,
                "store has no anytime curves; rerun the campaign with "
                "curve_points > 0");
    } else if (!has_paired_records(dataset, challenger, options.baseline)) {
      note_line(os, format, "store has no paired " + challenger + " and " +
                                options.baseline + " records");
    } else {
      write_table(os, crossing_table(dataset, pair_options), format);
    }
    os << '\n';
    // Curve-less stores would repeat the identical note per challenger.
    if (!dataset.has_curves()) break;
  }

  section_heading(os, format,
                  "Performance profile (Dolan-Moré: fraction of problems "
                  "within tau of the best)",
                  "profile");
  write_table(os, profile_table(dataset, options), format);
  os << '\n';

  // Timing section: phase/counter observability rolled up over cells.
  // Counts, rounds and cell tallies are deterministic (they come from the
  // sidecar's canonical columns); wall-clock ms is volatile and only
  // rendered behind show_timings, so golden-compared reports never see it.
  if (!options.metrics.empty()) {
    section_heading(os, format,
                    "Timing (deterministic phase counts" +
                        std::string(options.show_timings
                                        ? ", volatile wall-clock ms"
                                        : "") +
                        ")",
                    "timing");
    write_table(os, timing_table(options.metrics, options.show_timings),
                format);
    os << '\n';
  }

  note_line(os, format,
            "Lower is better throughout; every number is a deterministic "
            "function of the store's canonical records.");
}

}  // namespace sehc
