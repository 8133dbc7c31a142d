// Per-cell campaign metrics sidecar: `<store>.metrics.csv`.
//
// run_store_grid records every cell into its own MetricsRegistry and
// appends the snapshot here as flat rows, one per counter or phase node.
// The file is a record log (core/record_log.h), like the store: one append
// and one flush per cell, before the cell's store row, so a killed writer
// loses at most the cell in flight, and every reader drops the row it tore.
// finalize rewrites the file sorted via temp+rename. It also follows the
// result-store volatile-column discipline: the trailing `ms` column is
// wall-clock and every canonical emission drops it, so the canonical
// sidecar of an N-shard merge is byte-identical to a single-process run of
// the same spec.
//
// Header carries the producing spec's content hash; opening an existing
// sidecar written by a different spec discards it instead of mixing rows.
//
// Row schema: cell,kind,name,count,rounds,ms
//   kind = "counter" (count = value, rounds = 0)
//        | "phase"   (count = visits, rounds = round counter)
// Re-running a cell (resume after quarantine) appends fresh rows; readers
// dedup by (cell, kind, name) keeping the LAST occurrence, so a healed
// cell's metrics converge to what a fault-free run records.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/record_log.h"
#include "obs/metrics.h"

namespace sehc {

struct MetricsRow {
  std::size_t cell = 0;
  std::string kind;
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t rounds = 0;
  /// Volatile wall-clock milliseconds; dropped from canonical emission.
  double ms = 0.0;
};

/// `<store>.metrics.csv` next to a store file.
std::string default_metrics_path(const std::string& store_path);

/// Flattens a cell's registry snapshot into sidecar rows (counters first,
/// then phases; each block name-sorted by the snapshot's canonical order).
std::vector<MetricsRow> metrics_rows_from_snapshot(std::size_t cell,
                                                   const MetricsSnapshot& snap);

/// Append-through writer. Default-constructed (or empty-path) logs collect
/// rows in memory only — in-memory stores still aggregate, just without a
/// sidecar file.
class MetricsSidecarLog {
 public:
  MetricsSidecarLog() = default;
  /// Loads an existing file at `path` with a matching spec hash (resume);
  /// a mismatched or unreadable one is discarded. The file is rewritten
  /// with the loaded rows on the first append.
  MetricsSidecarLog(std::string path, std::uint64_t spec_hash);

  void append(std::size_t cell, const MetricsSnapshot& snap);

  /// Rows accumulated so far (loaded + appended), deduped and sorted.
  std::vector<MetricsRow> sorted_rows() const;

  /// Rewrites the file as sorted, deduped rows (ms kept) via temp+rename.
  /// Removes the file when no rows were loaded or recorded. No-op for
  /// in-memory logs.
  void finalize();

  const std::string& path() const { return path_; }

 private:
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
  std::string path_;
  std::uint64_t spec_hash_ = 0;
  std::vector<MetricsRow> rows_;
  std::optional<LogWriter> out_;
};

/// Loads a sidecar (missing file -> empty), dropping a torn final row.
/// Accepts both full (with ms) and canonical (without ms) files; canonical
/// rows read back with ms = 0.
std::vector<MetricsRow> read_metrics_sidecar(const std::string& path);

/// Stable-sorts by (cell, kind, name) and dedups keeping the last
/// occurrence in input order.
std::vector<MetricsRow> merge_metrics_rows(std::vector<MetricsRow> rows);

/// Writes the header + rows; `include_ms` selects the full or canonical
/// (deterministic) column set. Rows should already be merged/sorted.
void write_metrics_rows(std::ostream& os, const std::vector<MetricsRow>& rows,
                        std::uint64_t spec_hash, bool include_ms);

}  // namespace sehc
