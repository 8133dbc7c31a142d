#include "exp/fault.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/error.h"
#include "core/table.h"
#include "exp/sweep.h"

namespace sehc {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (true) {
    const auto pos = text.find(sep, start);
    parts.push_back(text.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return parts;
}

std::size_t parse_size(const std::string& key, const std::string& value) {
  return static_cast<std::size_t>(
      parse_csv_u64(value, "fault plan: '" + key + "'"));
}

std::vector<std::size_t> parse_cells(const std::string& key,
                                     const std::string& value) {
  std::vector<std::size_t> cells;
  for (const std::string& part : split(value, ',')) {
    cells.push_back(parse_size(key, part));
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

/// `all` -> 0 (every attempt); otherwise a positive attempt count.
std::size_t parse_attempts(const std::string& key, const std::string& value) {
  if (value == "all") return 0;
  const std::size_t n = parse_size(key, value);
  SEHC_CHECK(n > 0, "fault plan: '" + key + "' must be positive or 'all'");
  return n;
}

bool contains(const std::vector<std::size_t>& cells, std::size_t cell) {
  return std::binary_search(cells.begin(), cells.end(), cell);
}

std::string join_cells(const std::vector<std::size_t>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(cells[i]);
  }
  return out;
}

std::string attempts_value(std::size_t attempts) {
  return attempts == 0 ? "all" : std::to_string(attempts);
}

/// Uniform [0,1) draw that is a pure function of (seed, cell).
double cell_u01(std::uint64_t seed, std::size_t cell) {
  const std::uint64_t mixed =
      derive_seed(seed, {cell});
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

/// The sidecar stays strictly one record per line so it greps and tails
/// cleanly: embedded newlines (multi-line exception messages) are folded
/// into a space instead of RFC-4180 multi-line quoting.
std::string one_line(std::string s) {
  std::replace_if(
      s.begin(), s.end(), [](char c) { return c == '\n' || c == '\r'; }, ' ');
  return s;
}

constexpr const char* kQuarantineHeader = "cell,coords,label,attempts,error";

std::string format_record(const QuarantineRecord& r) {
  return std::to_string(r.cell) + "," + csv_escape(one_line(r.coords)) + "," +
         csv_escape(one_line(r.label)) + "," + std::to_string(r.attempts) +
         "," + csv_escape(one_line(r.error));
}

std::vector<QuarantineRecord> sorted_by_cell(
    std::vector<QuarantineRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const QuarantineRecord& a, const QuarantineRecord& b) {
                     return a.cell < b.cell;
                   });
  return records;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (const std::string& directive : split(spec, ';')) {
    if (directive.empty()) continue;
    const auto eq = directive.find('=');
    SEHC_CHECK(eq != std::string::npos,
               "fault plan: directive '" + directive + "' is not key=value");
    const std::string key = directive.substr(0, eq);
    const std::string value = directive.substr(eq + 1);
    if (key == "seed") {
      plan.seed_ = parse_size(key, value);
    } else if (key == "throw") {
      plan.throw_probability_ = parse_csv_double(value, "fault plan: 'throw'");
      SEHC_CHECK(plan.throw_probability_ >= 0.0 &&
                     plan.throw_probability_ <= 1.0,
                 "fault plan: 'throw' probability must be in [0,1]");
    } else if (key == "throw-cells") {
      plan.throw_cells_ = parse_cells(key, value);
    } else if (key == "throw-attempts") {
      plan.throw_attempts_ = parse_attempts(key, value);
    } else if (key == "slow-cells") {
      plan.slow_cells_ = parse_cells(key, value);
    } else if (key == "slow-ms") {
      plan.slow_ms_ = parse_size(key, value);
    } else if (key == "slow-attempts") {
      plan.slow_attempts_ = parse_attempts(key, value);
    } else if (key == "hang-cells") {
      plan.hang_cells_ = parse_cells(key, value);
    } else if (key == "hang-attempts") {
      plan.hang_attempts_ = parse_attempts(key, value);
    } else if (key == "torn-cell") {
      plan.torn_cell_ = parse_size(key, value);
    } else if (key == "torn-bytes") {
      plan.torn_bytes_ = parse_size(key, value);
    } else {
      throw_error("fault plan: unknown directive '" + key + "'");
    }
  }
  return plan;
}

bool FaultPlan::empty() const {
  return throw_probability_ == 0.0 && throw_cells_.empty() &&
         slow_cells_.empty() && hang_cells_.empty() && !torn_cell_;
}

std::string FaultPlan::describe() const {
  if (empty()) return "none";
  std::vector<std::string> parts;
  if (throw_probability_ > 0.0) {
    parts.push_back("throw=" + format_fixed(throw_probability_, 3) +
                    " seed=" + std::to_string(seed_));
  }
  if (!throw_cells_.empty()) {
    parts.push_back("throw-cells=" + join_cells(throw_cells_));
  }
  if (throw_probability_ > 0.0 || !throw_cells_.empty()) {
    parts.push_back("throw-attempts=" + attempts_value(throw_attempts_));
  }
  if (!slow_cells_.empty()) {
    parts.push_back("slow-cells=" + join_cells(slow_cells_) +
                    " slow-ms=" + std::to_string(slow_ms_) +
                    " slow-attempts=" + attempts_value(slow_attempts_));
  }
  if (!hang_cells_.empty()) {
    parts.push_back("hang-cells=" + join_cells(hang_cells_) +
                    " hang-attempts=" + attempts_value(hang_attempts_));
  }
  if (torn_cell_) {
    parts.push_back("torn-cell=" + std::to_string(*torn_cell_) +
                    " torn-bytes=" + std::to_string(torn_bytes_));
  }
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += "; ";
    out += parts[i];
  }
  return out;
}

bool FaultPlan::attempt_hit(std::size_t attempts, std::size_t attempt) {
  return attempts == 0 || attempt < attempts;
}

FaultKind FaultPlan::cell_fault(std::size_t cell, std::size_t attempt) const {
  if (contains(hang_cells_, cell) && attempt_hit(hang_attempts_, attempt)) {
    return FaultKind::kHang;
  }
  if (contains(slow_cells_, cell) && attempt_hit(slow_attempts_, attempt)) {
    return FaultKind::kSlow;
  }
  if (attempt_hit(throw_attempts_, attempt)) {
    if (contains(throw_cells_, cell)) return FaultKind::kThrow;
    if (throw_probability_ > 0.0 &&
        cell_u01(seed_, cell) < throw_probability_) {
      return FaultKind::kThrow;
    }
  }
  return FaultKind::kNone;
}

std::optional<std::size_t> FaultPlan::torn_write(std::size_t cell) const {
  if (torn_cell_ && *torn_cell_ == cell) return torn_bytes_;
  return std::nullopt;
}

void apply_cell_fault(const FaultPlan& plan, std::size_t cell,
                      std::size_t attempt, const Deadline& deadline) {
  switch (plan.cell_fault(cell, attempt)) {
    case FaultKind::kNone:
      return;
    case FaultKind::kThrow:
      throw_error("injected fault: cell " + std::to_string(cell) +
                  " attempt " + std::to_string(attempt));
    case FaultKind::kSlow:
      std::this_thread::sleep_for(std::chrono::milliseconds(plan.slow_ms()));
      return;
    case FaultKind::kHang: {
      // Simulated runaway cell: spin until the watchdog fires. The safety
      // cap keeps an unguarded hang from wedging a test run forever.
      const auto start = std::chrono::steady_clock::now();
      while (!deadline.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const double waited =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (deadline.unlimited() && waited > 30.0) {
          throw_error("injected hang: cell " + std::to_string(cell) +
                      " ran 30 s with no deadline armed (safety cap)");
        }
      }
      throw TimeoutError(
          "injected hang: cell " + std::to_string(cell) +
          " exceeded its deadline of " +
          format_fixed(deadline.budget_seconds(), 3) + " s");
    }
  }
}

std::string default_quarantine_path(const std::string& store_path) {
  return store_path + ".failed.csv";
}

void QuarantineLog::append(QuarantineRecord record) {
  std::lock_guard<std::mutex> lock(*mutex_);
  if (!path_.empty()) {
    if (!out_) {
      // Lazy: a clean run never creates the sidecar. Start it over — any
      // existing sidecar describes a previous (pre-resume) run whose
      // records we re-derive by re-running the failed cells.
      replace_log(path_, {kQuarantineHeader});
      out_.emplace(path_);
    }
    out_->append(format_record(record));
  }
  records_.push_back(std::move(record));
}

std::vector<QuarantineRecord> QuarantineLog::sorted_records() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return sorted_by_cell(records_);
}

void QuarantineLog::finalize() {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  out_.reset();  // close the append stream before replacing the file
  if (records_.empty()) {
    // The run ended clean: remove any sidecar (ours from earlier appends,
    // or a stale one from the pre-resume run whose failures just healed).
    std::remove(path_.c_str());
    return;
  }
  std::vector<std::string> lines{kQuarantineHeader};
  for (const QuarantineRecord& r : sorted_by_cell(records_)) {
    lines.push_back(format_record(r));
  }
  replace_log(path_, lines);
}

std::vector<QuarantineRecord> read_quarantine(const std::string& path) {
  const std::optional<LogLines> log = read_log(path);
  if (!log) return {};  // clean runs delete their sidecar
  const std::string context = "quarantine sidecar '" + path + "'";
  SEHC_CHECK(!log->lines.empty() && log->lines[0] == kQuarantineHeader,
             context + ": missing or unexpected header");
  std::vector<QuarantineRecord> records;
  for (std::size_t i = 1; i < log->lines.size(); ++i) {
    const std::string& line = log->lines[i];
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line, context);
    SEHC_CHECK(fields.size() == 5, context + ": expected 5 fields, got " +
                                       std::to_string(fields.size()) + ": " +
                                       line);
    QuarantineRecord r;
    r.cell = static_cast<std::size_t>(parse_csv_u64(fields[0], context));
    r.coords = fields[1];
    r.label = fields[2];
    r.attempts = static_cast<std::size_t>(parse_csv_u64(fields[3], context));
    r.error = fields[4];
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace sehc
