// Report CLI: publication-grade comparisons from campaign stores (see
// README "Analysis").
//
//   sehc_report summary   STORE...   per-class mean +/- bootstrap CI
//   sehc_report winloss   STORE...   win/loss/tie per scheduler pair
//   sehc_report crossings STORE...   when the challenger overtakes the
//                                    baseline on the mean anytime curve
//   sehc_report profile   STORE...   Dolan-Moré performance profile
//   sehc_report curves    STORE...   mean anytime curve per scheduler on
//                                    the budget grid (Figures 5-7)
//   sehc_report full      STORE...   the full Markdown/CSV report
//
// Options: --format md|csv (default md), --out PATH (default stdout),
//          --challenger NAME (default SE), --baseline NAME (default GA),
//          --resamples N, --confidence C, --boot-seed S, --taus t1,t2,...
//
// Several STORE arguments are merged first (they must carry the same spec
// hash), so per-shard stores can be analyzed without a separate merge
// step. Output is byte-deterministic for fixed inputs: CI diffs a
// generated report against a committed golden.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/report.h"
#include "core/error.h"
#include "core/options.h"
#include "exp/fault.h"
#include "exp/result_store.h"
#include "obs/metrics_sidecar.h"

namespace {

using namespace sehc;

constexpr std::string_view kUsage =
    "usage: sehc_report <summary|winloss|crossings|profile|curves|full>"
    " [options] STORE...\n"
    "  --format md|csv      output format (default md)\n"
    "  --out PATH           write to PATH instead of stdout\n"
    "  --challenger NAME    comparison challenger (default SE)\n"
    "  --baseline NAME      comparison baseline (default GA)\n"
    "  --resamples N        bootstrap resamples (default 2000)\n"
    "  --confidence C       CI level in (0,1) (default 0.95)\n"
    "  --boot-seed S        bootstrap seed\n"
    "  --taus t1,t2,...     profile tau breakpoints\n"
    "  --timings            add the volatile wall-clock ms column "
    "to the Timing section\n";

/// A numeric flag value by the whole-string rule of Options: "10k",
/// "0.95x" and a sign on an unsigned value are usage errors.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  if (const auto value = parse_whole<T>(text)) return *value;
  throw UsageError(flag + " expects a number, got '" + text + "'");
}

std::vector<double> parse_taus(const std::string& text) {
  std::vector<double> taus;
  std::string::size_type pos = 0;
  while (pos <= text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    taus.push_back(
        parse_number<double>("--taus", text.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return taus;
}

struct Cli {
  std::string command;
  std::vector<std::string> stores;
  std::string out_path;
  ReportFormat format = ReportFormat::kMarkdown;
  ReportOptions options;
};

Cli parse_cli(int argc, char** argv) {
  if (argc < 2) throw UsageError("missing command");
  Cli cli;
  cli.command = argv[1];
  if (cli.command == "--help") throw UsageError::help_request();
  if (cli.command != "summary" && cli.command != "winloss" &&
      cli.command != "crossings" && cli.command != "profile" &&
      cli.command != "curves" && cli.command != "full") {
    throw UsageError("unknown command '" + cli.command + "'");
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") throw UsageError::help_request();
    std::string value;
    const auto eq = arg.find('=');
    const bool has_inline = arg.rfind("--", 0) == 0 && eq != std::string::npos;
    if (has_inline) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto take = [&]() -> std::string {
      if (has_inline) return value;
      if (i + 1 >= argc) throw UsageError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--format") cli.format = parse_report_format(take());
    else if (arg == "--out") cli.out_path = take();
    else if (arg == "--challenger") cli.options.challenger = take();
    else if (arg == "--baseline") cli.options.baseline = take();
    else if (arg == "--resamples") {
      cli.options.bootstrap.resamples = parse_number<std::size_t>(arg, take());
    } else if (arg == "--confidence") {
      cli.options.bootstrap.confidence = parse_number<double>(arg, take());
    } else if (arg == "--boot-seed") {
      cli.options.bootstrap.seed = parse_number<std::uint64_t>(arg, take());
    } else if (arg == "--taus") {
      cli.options.profile_taus = parse_taus(take());
    } else if (arg == "--timings") {
      cli.options.show_timings = true;
    } else {
      if (arg.rfind("--", 0) == 0) throw UsageError("unknown option " + arg);
      cli.stores.push_back(arg);
    }
  }
  if (cli.stores.empty()) throw UsageError(cli.command + ": no input stores");
  return cli;
}

int render(const Cli& cli) {
  // merge() handles the single-store case too and rejects mixed specs.
  const ResultStore store = ResultStore::merge(cli.stores);
  const CampaignDataset dataset = build_dataset(store);

  // Degraded-mode context: each input store's quarantine sidecar
  // (`<store>.failed.csv`, written by sehc_campaign when cells exhaust
  // their retries) feeds the report's missing-cells section. A store
  // without a sidecar (the healthy case) contributes nothing.
  Cli enriched = cli;
  std::vector<std::string> sources;
  for (const std::string& path : cli.stores) {
    const std::string sidecar = default_quarantine_path(path);
    std::vector<QuarantineRecord> records = read_quarantine(sidecar);
    if (records.empty()) continue;
    enriched.options.quarantined.insert(enriched.options.quarantined.end(),
                                        records.begin(), records.end());
    sources.push_back(sidecar);
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i > 0) enriched.options.quarantine_source += ", ";
    enriched.options.quarantine_source += sources[i];
  }

  // Observability context: each input store's metrics sidecar
  // (`<store>.metrics.csv`) feeds the Timing section. Sidecars from several
  // shards merge keep-last by (cell, kind, name), exactly like the campaign
  // merge, so shard reports match the single-process report byte for byte.
  std::vector<MetricsRow> metrics;
  for (const std::string& path : cli.stores) {
    const std::vector<MetricsRow> rows =
        read_metrics_sidecar(default_metrics_path(path));
    metrics.insert(metrics.end(), rows.begin(), rows.end());
  }
  enriched.options.metrics = merge_metrics_rows(std::move(metrics));
  const ReportOptions& options = enriched.options;

  // Render fully before touching --out: a failing command must not
  // truncate or replace a previous good report file.
  std::ostringstream os;
  if (cli.command == "summary") {
    write_table(os, summary_table(dataset, options), cli.format);
  } else if (cli.command == "winloss") {
    const Table table = win_loss_table(dataset);
    SEHC_CHECK(table.rows() > 0,
               "winloss: fewer than two schedulers share seeds");
    write_table(os, table, cli.format);
  } else if (cli.command == "crossings") {
    write_table(os, crossing_table(dataset, options), cli.format);
  } else if (cli.command == "profile") {
    write_table(os, profile_table(dataset, options), cli.format);
  } else if (cli.command == "curves") {
    write_table(os, curve_table(dataset), cli.format);
  } else {
    write_report(os, dataset, options, cli.format);
  }

  if (cli.out_path.empty()) {
    std::cout << os.str();
  } else {
    std::ofstream file(cli.out_path, std::ios::binary);
    SEHC_CHECK(static_cast<bool>(file),
               "cannot write '" + cli.out_path + "'");
    file << os.str();
    file.flush();
    SEHC_CHECK(static_cast<bool>(file),
               "write to '" + cli.out_path + "' failed");
    std::cout << "report: " << cli.out_path << '\n';
  }
  return 0;
}

int run(int argc, char** argv) { return render(parse_cli(argc, argv)); }

}  // namespace

int main(int argc, char** argv) {
  return sehc::run_driver(argc, argv, run, kUsage);
}
