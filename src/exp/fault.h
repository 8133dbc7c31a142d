// Deterministic fault injection and quarantine for campaign execution.
//
// A FaultPlan is parsed from a spec string (sehc_campaign --fault-plan) and
// injects three failure modes into campaign cells, plus one into the store:
//
//   * throw — the cell raises an exception before computing;
//   * slow  — the cell sleeps before computing (straggler simulation);
//   * hang  — the cell spins until its watchdog Deadline expires
//             (runaway-cell simulation; raises TimeoutError);
//   * torn write — the ResultStore writes only a prefix of one cell's
//     record line, flushes it, and kills the process (exit code 17),
//     simulating a crash mid-append.
//
// Every decision is a pure function of (plan, cell index, attempt) —
// probabilistic throws hash the plan seed with the cell index — so chaos
// runs are exactly reproducible in unit tests and CI, and a
// faulted-then-retried/resumed campaign can be pinned byte-identical to a
// fault-free run.
//
// Cells that exhaust their retries are quarantined: appended to a sidecar
// CSV next to the store (`<store>.failed.csv`) with coordinates, error text
// and attempt count. The sidecar is a record log (core/record_log.h), like
// the store: append-through during the run (crash evidence survives a
// kill, and readers drop a row the kill tore) and rewritten in sorted
// canonical form when the run ends; it is deleted when a run completes with
// zero failures.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/record_log.h"
#include "search/engine.h"

namespace sehc {

/// The fault injected into one (cell, attempt) execution.
enum class FaultKind { kNone, kThrow, kSlow, kHang };

/// A deterministic fault-injection plan. Parsed from a `;`-separated list
/// of key=value directives:
///
///   seed=N           seed for probabilistic directives (default 0)
///   throw=P          each cell throws with probability P (hash of
///                    seed x cell — same cells fault on every run)
///   throw-cells=a,b  these cells always throw
///   throw-attempts=K throws fire on the first K attempts (default 1, so a
///                    retry succeeds — a transient fault); `all` = every
///                    attempt (a permanent fault)
///   slow-cells=a,b   these cells sleep slow-ms before computing
///   slow-ms=M        sleep duration (default 50)
///   slow-attempts=K  as throw-attempts, for slow cells
///   hang-cells=a,b   these cells spin until the watchdog deadline expires
///   hang-attempts=K  as throw-attempts, for hung cells
///   torn-cell=C      the store write for cell C is torn: only the first
///                    torn-bytes bytes of its line reach the file, then the
///                    process exits with code 17
///   torn-bytes=B     bytes of the torn line to persist (default 0); the
///                    newline counts, so line length + 1 persists the line
///
/// Precedence when several directives hit one cell: hang > slow > throw.
class FaultPlan {
 public:
  /// Empty plan: injects nothing.
  FaultPlan() = default;

  /// Parses a spec string; throws sehc::Error on unknown directives or
  /// malformed values. An empty string parses to the empty plan.
  static FaultPlan parse(const std::string& spec);

  /// True when the plan injects nothing at all.
  bool empty() const;

  /// Canonical one-line echo of the plan's active directives.
  std::string describe() const;

  /// The fault injected into `cell` on the given 0-based attempt. Pure
  /// function of the plan and its arguments.
  FaultKind cell_fault(std::size_t cell, std::size_t attempt) const;

  /// Sleep duration for kSlow faults.
  std::size_t slow_ms() const { return slow_ms_; }

  /// The torn-write prefix length for `cell`, or nullopt when this cell's
  /// store write is not torn.
  std::optional<std::size_t> torn_write(std::size_t cell) const;

  bool has_torn_write() const { return torn_cell_.has_value(); }

 private:
  static bool attempt_hit(std::size_t attempts, std::size_t attempt);

  std::uint64_t seed_ = 0;
  double throw_probability_ = 0.0;
  std::vector<std::size_t> throw_cells_;
  std::size_t throw_attempts_ = 1;  // 0 == all attempts
  std::vector<std::size_t> slow_cells_;
  std::size_t slow_ms_ = 50;
  std::size_t slow_attempts_ = 1;
  std::vector<std::size_t> hang_cells_;
  std::size_t hang_attempts_ = 1;
  std::optional<std::size_t> torn_cell_;
  std::size_t torn_bytes_ = 0;
};

/// Executes the plan's fault for (cell, attempt): throws sehc::Error for
/// kThrow, sleeps for kSlow, and for kHang spins polling `deadline` until
/// it expires (then throws TimeoutError). A hang with no armed deadline is
/// cut off by a 30 s safety cap so a misconfigured test cannot wedge.
void apply_cell_fault(const FaultPlan& plan, std::size_t cell,
                      std::size_t attempt, const Deadline& deadline);

/// One quarantined cell: identity plus the failure that exhausted its
/// retries.
struct QuarantineRecord {
  std::size_t cell = 0;
  /// Axis-named grid coordinates, e.g. "class=2, rep=7, scheduler=1".
  std::string coords;
  /// Human label resolved from the spec, e.g.
  /// "class=paper-small rep=3 scheduler=GA" (empty when unavailable).
  std::string label;
  /// Executions attempted (1 = failed without retries).
  std::size_t attempts = 0;
  /// what() of the last failure.
  std::string error;

  friend bool operator==(const QuarantineRecord&,
                         const QuarantineRecord&) = default;
};

/// The conventional sidecar path for a store: `<store_path>.failed.csv`.
std::string default_quarantine_path(const std::string& store_path);

/// Append-through quarantine sidecar writer. The first append() starts the
/// file over with its header (a clean run never creates it); every append
/// writes one CSV line and flushes, so quarantine evidence survives a
/// mid-run kill. finalize() rewrites the file in cell-sorted canonical form
/// via temp file + atomic rename, and deletes it when the run ended with
/// zero quarantined cells.
class QuarantineLog {
 public:
  /// In-memory log (no sidecar file).
  QuarantineLog() = default;
  explicit QuarantineLog(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }

  /// Thread-safe; file-backed logs write and flush before returning.
  void append(QuarantineRecord record);

  /// Records in append order.
  const std::vector<QuarantineRecord>& records() const { return records_; }

  /// Records sorted by cell index.
  std::vector<QuarantineRecord> sorted_records() const;

  /// Rewrites the sidecar sorted by cell (temp file + rename); removes it
  /// when no record was appended. No-op for in-memory logs.
  void finalize();

 private:
  std::string path_;  // empty = memory-only
  std::optional<LogWriter> out_;
  std::vector<QuarantineRecord> records_;
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

/// Loads a quarantine sidecar written by QuarantineLog, dropping a torn
/// final row. A missing file loads as empty (a clean run deletes its
/// sidecar); a malformed file throws sehc::Error.
std::vector<QuarantineRecord> read_quarantine(const std::string& path);

}  // namespace sehc
