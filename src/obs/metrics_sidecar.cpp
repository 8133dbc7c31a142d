#include "obs/metrics_sidecar.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <ostream>

#include "core/error.h"
#include "core/record_log.h"
#include "core/table.h"

namespace sehc {

namespace {

constexpr const char* kColumnsFull = "cell,kind,name,count,rounds,ms";
constexpr const char* kColumnsCanonical = "cell,kind,name,count,rounds";

std::string header_line(std::uint64_t spec_hash) {
  return "# sehc-metrics v1 spec=" + std::to_string(spec_hash);
}

std::string format_row(const MetricsRow& r, bool include_ms) {
  std::string line = std::to_string(r.cell) + "," + csv_escape(r.kind) + "," +
                     csv_escape(r.name) + "," + std::to_string(r.count) + "," +
                     std::to_string(r.rounds);
  if (include_ms) line += "," + format_fixed(r.ms, 3);
  return line;
}

/// The file's lines: the header, the column line, then one line per row.
std::vector<std::string> sidecar_lines(const std::vector<MetricsRow>& rows,
                                       std::uint64_t spec_hash,
                                       bool include_ms) {
  std::vector<std::string> lines{header_line(spec_hash),
                                 include_ms ? kColumnsFull : kColumnsCanonical};
  for (const MetricsRow& r : rows) lines.push_back(format_row(r, include_ms));
  return lines;
}

/// Parses a sidecar's complete lines (read_log has set a torn tail aside).
std::vector<MetricsRow> parse_sidecar(const std::vector<std::string>& lines,
                                      const std::string& path) {
  const std::string context = "metrics sidecar '" + path + "'";
  SEHC_CHECK(!lines.empty(), context + ": empty file");
  SEHC_CHECK(lines[0].rfind("# sehc-metrics v1 ", 0) == 0,
             context + ": unexpected header: " + lines[0]);
  SEHC_CHECK(lines.size() >= 2, context + ": missing column header");
  const bool has_ms = lines[1] == kColumnsFull;
  SEHC_CHECK(has_ms || lines[1] == kColumnsCanonical,
             context + ": unexpected columns: " + lines[1]);
  std::vector<MetricsRow> rows;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line, context);
    SEHC_CHECK(fields.size() == (has_ms ? 6u : 5u),
               context + ": malformed row: " + line);
    MetricsRow r;
    r.cell = static_cast<std::size_t>(parse_csv_u64(fields[0], context));
    r.kind = fields[1];
    r.name = fields[2];
    r.count = parse_csv_u64(fields[3], context);
    r.rounds = parse_csv_u64(fields[4], context);
    if (has_ms) r.ms = parse_csv_double(fields[5], context);
    rows.push_back(std::move(r));
  }
  return rows;
}

bool row_key_less(const MetricsRow& a, const MetricsRow& b) {
  if (a.cell != b.cell) return a.cell < b.cell;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.name < b.name;
}

}  // namespace

std::string default_metrics_path(const std::string& store_path) {
  return store_path + ".metrics.csv";
}

std::vector<MetricsRow> metrics_rows_from_snapshot(
    std::size_t cell, const MetricsSnapshot& snap) {
  std::vector<MetricsRow> rows;
  rows.reserve(snap.counters.size() + snap.phases.size());
  for (const auto& [name, value] : snap.counters) {
    rows.push_back(MetricsRow{cell, "counter", name, value, 0, 0.0});
  }
  for (const auto& [path, stats] : snap.phases) {
    rows.push_back(MetricsRow{cell, "phase", path, stats.visits, stats.rounds,
                              stats.seconds * 1e3});
  }
  return rows;
}

MetricsSidecarLog::MetricsSidecarLog(std::string path, std::uint64_t spec_hash)
    : path_(std::move(path)), spec_hash_(spec_hash) {
  if (path_.empty()) return;
  // Resume: keep rows from a previous run of the SAME spec; anything else
  // (other spec, damaged header) is discarded — the cells rerun and
  // re-derive their metrics.
  const std::optional<LogLines> log = read_log(path_);
  if (log && !log->lines.empty() && log->lines[0] == header_line(spec_hash_)) {
    rows_ = parse_sidecar(log->lines, path_);
  }
}

void MetricsSidecarLog::append(std::size_t cell, const MetricsSnapshot& snap) {
  std::vector<MetricsRow> rows = metrics_rows_from_snapshot(cell, snap);
  if (rows.empty()) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  if (!path_.empty()) {
    if (!out_) {
      // The first append starts the file over with the resumed rows.
      replace_log(path_, sidecar_lines(rows_, spec_hash_, true));
      out_.emplace(path_);
    }
    std::vector<std::string> lines;
    for (const MetricsRow& r : rows) lines.push_back(format_row(r, true));
    out_->append(lines);  // one flush per cell
  }
  rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
}

std::vector<MetricsRow> MetricsSidecarLog::sorted_rows() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return merge_metrics_rows(rows_);
}

void MetricsSidecarLog::finalize() {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  out_.reset();
  if (rows_.empty()) {
    // Nothing recorded and nothing carried over: remove any stale sidecar
    // (e.g. one left by a run of a different spec).
    std::remove(path_.c_str());
    return;
  }
  replace_log(path_, sidecar_lines(merge_metrics_rows(rows_), spec_hash_, true));
}

std::vector<MetricsRow> read_metrics_sidecar(const std::string& path) {
  const std::optional<LogLines> log = read_log(path);
  if (!log) return {};  // no sidecar -> no metrics
  return parse_sidecar(log->lines, path);
}

std::vector<MetricsRow> merge_metrics_rows(std::vector<MetricsRow> rows) {
  // Stable sort keeps input order within a key, so "last occurrence wins"
  // is the row after sorting's final duplicate — a cell healed on resume
  // reports its fault-free metrics, not the quarantined attempt's.
  std::stable_sort(rows.begin(), rows.end(), row_key_less);
  std::vector<MetricsRow> out;
  out.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i + 1 < rows.size() && !row_key_less(rows[i], rows[i + 1])) continue;
    out.push_back(std::move(rows[i]));
  }
  return out;
}

void write_metrics_rows(std::ostream& os, const std::vector<MetricsRow>& rows,
                        std::uint64_t spec_hash, bool include_ms) {
  for (const std::string& line : sidecar_lines(rows, spec_hash, include_ms)) {
    os << line << '\n';
  }
}

}  // namespace sehc
