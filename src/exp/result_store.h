// Durable experiment-result store for campaign sweeps.
//
// A ResultStore is an append-only table of per-cell records keyed by the
// content hash of the spec that produced them. Three properties make
// campaigns resumable and shardable:
//
//   * Durability: the file is a record log (core/record_log.h). The header
//     goes down atomically, each completed cell appends and flushes one CSV
//     line, so a killed process loses at most the line it was writing. On
//     reopen, that torn final line is dropped (the cell simply reruns).
//   * Identity: the header carries the producing spec's content hash; a
//     store can only be appended to, or merged with, stores of the same
//     spec. Resuming with a changed spec fails loudly instead of silently
//     mixing incompatible records.
//   * Canonical form: write_canonical() emits records sorted by cell index
//     with volatile (wall-clock) columns dropped, so a merge of N shard
//     stores is byte-identical to the canonical form of one uninterrupted
//     single-process run of the same spec.
//
// The record schema is generic (named string columns), so both the
// scheduler campaigns and other grid producers (e.g. workload-metric
// sweeps) persist through the same machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

// Spec identity is content_hash64(canonical string) — the shared discipline
// now lives in core so the serving layer's request cache keys the same way.
#include "core/content_hash.h"
#include "core/record_log.h"

namespace sehc {

/// Process-global crash injection for chaos tests: when a hook is
/// installed, ResultStore::append consults it with the cell index before
/// writing. If it returns a prefix length, only that many bytes of the
/// formatted record line and its newline reach the file (line length + 1
/// persists the whole record), the stream is flushed, and the process exits
/// immediately with code 17 — simulating a writer killed mid-append. Pass
/// an empty function to clear.
void set_torn_write_hook(
    std::function<std::optional<std::size_t>(std::size_t)> hook);

/// Identity + layout of a store: which spec produced it and what the record
/// columns are. Two stores are compatible iff kind, spec_hash and columns
/// all match.
struct StoreSchema {
  /// Record family, e.g. "campaign" or "workload-metrics".
  std::string kind;
  /// Content hash of the producing spec (content_hash64 of its canonical
  /// string).
  std::uint64_t spec_hash = 0;
  /// One-line human-readable echo of the spec (no newlines).
  std::string spec_line;
  /// Per-record field names; the implicit leading column is always `cell`.
  std::vector<std::string> columns;
  /// Number of TRAILING columns that are wall-clock-dependent (e.g.
  /// seconds). They are persisted in shard stores for observability but
  /// dropped from the canonical form, which must be deterministic.
  std::size_t volatile_columns = 0;

  bool compatible_with(const StoreSchema& other) const;
};

/// One record: a flat cell index plus one string per schema column.
struct StoreRow {
  std::size_t cell = 0;
  std::vector<std::string> fields;

  friend bool operator==(const StoreRow&, const StoreRow&) = default;
};

class ResultStore {
 public:
  /// A store with no backing file (records live only in memory). Used by
  /// drivers that print tables directly and by merge().
  static ResultStore in_memory(StoreSchema schema);

  /// Opens `path` for appending, creating it (with a header) if absent or
  /// empty. An existing file must carry a compatible schema and a complete
  /// header; its records are loaded so contains() answers resume queries. A
  /// torn final line (killed writer) is dropped and the file is rewritten
  /// without it.
  static ResultStore open(const std::string& path, StoreSchema schema);

  /// Loads an existing store read-only; the schema is read from the file.
  /// Appending to a loaded store throws.
  static ResultStore load(const std::string& path);

  /// Merges several stores into one in-memory store. All inputs must be
  /// mutually compatible. Records present in several inputs must agree on
  /// every deterministic field (volatile fields may differ; the first
  /// occurrence wins).
  static ResultStore merge(const std::vector<std::string>& paths);

  const StoreSchema& schema() const { return schema_; }
  /// Backing file path; empty for in-memory stores.
  const std::string& path() const { return path_; }

  std::size_t size() const { return rows_.size(); }
  bool contains(std::size_t cell) const { return cells_.count(cell) > 0; }

  /// Appends one record. Thread-safe; file-backed stores write and flush
  /// the line before returning. The cell must not already be present and
  /// the field count must match the schema.
  void append(StoreRow row);

  /// Records in append order (shard stores: completion order).
  const std::vector<StoreRow>& rows() const { return rows_; }

  /// Records sorted by cell index (stable resume/merge-independent order).
  std::vector<StoreRow> sorted_rows() const;

  /// Writes the deterministic canonical form: header + records sorted by
  /// cell with volatile columns dropped. Byte-identical across any
  /// shard/thread/resume decomposition of the same spec.
  void write_canonical(std::ostream& os) const;

 private:
  ResultStore(StoreSchema schema, std::string path);

  /// Adds records read from `path_`; throws on a duplicate cell.
  void adopt(std::vector<StoreRow> rows);

  StoreSchema schema_;
  std::string path_;  // empty = memory-only
  std::optional<LogWriter> log_;  // unset = memory-only or read-only
  std::vector<StoreRow> rows_;
  std::unordered_set<std::size_t> cells_;
  std::unique_ptr<std::mutex> mutex_;
};

}  // namespace sehc
