#include "exp/result_store.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <ostream>

#include "core/error.h"
#include "core/table.h"

namespace sehc {

namespace {
// Chaos-test crash injection; see set_torn_write_hook in the header.
std::function<std::optional<std::size_t>(std::size_t)> g_torn_write_hook;
}  // namespace

void set_torn_write_hook(
    std::function<std::optional<std::size_t>(std::size_t)> hook) {
  g_torn_write_hook = std::move(hook);
}

bool StoreSchema::compatible_with(const StoreSchema& other) const {
  return kind == other.kind && spec_hash == other.spec_hash &&
         columns == other.columns && volatile_columns == other.volatile_columns;
}

namespace {

constexpr const char* kMagic = "# sehc-result-store v1";

std::uint64_t hex_to_hash(const std::string& hex) {
  SEHC_CHECK(hex.size() == 16, "ResultStore: malformed spec_hash '" + hex + "'");
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else throw_error("ResultStore: malformed spec_hash '" + hex + "'");
  }
  return value;
}

/// Strips "# key: " and returns the value; throws if the line doesn't match.
std::string header_value(const std::string& line, const std::string& key) {
  const std::string prefix = "# " + key + ": ";
  SEHC_CHECK(line.rfind(prefix, 0) == 0,
             "ResultStore: expected header line '" + prefix +
                 "...', got '" + line + "'");
  return line.substr(prefix.size());
}

/// The six header lines: magic, kind, spec hash, spec, volatile column
/// count, and the column line.
std::vector<std::string> header_lines(const StoreSchema& schema) {
  std::string columns = "cell";
  for (const std::string& col : schema.columns) columns += "," + csv_escape(col);
  return {kMagic,
          "# kind: " + schema.kind,
          "# spec_hash: " + hash_to_hex(schema.spec_hash),
          "# spec: " + schema.spec_line,
          "# volatile_columns: " + std::to_string(schema.volatile_columns),
          columns};
}

/// `row` as a CSV line: the cell index, then its first `columns` fields.
std::string format_row(const StoreRow& row, std::size_t columns) {
  std::string line = std::to_string(row.cell);
  for (std::size_t c = 0; c < columns; ++c) {
    line.push_back(',');
    line += csv_escape(row.fields[c]);
  }
  return line;
}

struct ParsedFile {
  StoreSchema schema;
  std::vector<StoreRow> rows;
};

/// Parses a store's complete lines (read_log has set a torn tail aside). A
/// malformed line anywhere is corruption and throws, and so does a header
/// that lacks any of its six complete lines.
ParsedFile parse_store(const std::vector<std::string>& lines,
                       const std::string& path) {
  ParsedFile out;
  const std::string context = "ResultStore: '" + path + "'";
  SEHC_CHECK(lines.size() >= 6,
             context + " is not a result store (truncated header)");
  SEHC_CHECK(lines[0] == kMagic,
             context + " is not a result store (bad magic)");
  out.schema.kind = header_value(lines[1], "kind");
  out.schema.spec_hash = hex_to_hash(header_value(lines[2], "spec_hash"));
  out.schema.spec_line = header_value(lines[3], "spec");
  out.schema.volatile_columns = static_cast<std::size_t>(
      parse_csv_u64(header_value(lines[4], "volatile_columns"),
                    "ResultStore volatile_columns"));
  std::vector<std::string> columns = split_csv_line(lines[5], context);
  SEHC_CHECK(!columns.empty() && columns.front() == "cell",
             context + " column line must start with 'cell'");
  columns.erase(columns.begin());
  out.schema.columns = std::move(columns);
  SEHC_CHECK(out.schema.volatile_columns <= out.schema.columns.size(),
             "ResultStore: volatile_columns exceeds column count in " + path);

  for (std::size_t i = 6; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    std::vector<std::string> fields = split_csv_line(line, context);
    SEHC_CHECK(fields.size() == out.schema.columns.size() + 1,
               "ResultStore: malformed record in '" + path + "': " + line);
    StoreRow row;
    row.cell = static_cast<std::size_t>(
        parse_csv_u64(fields[0], context + " cell index"));
    row.fields.assign(std::make_move_iterator(fields.begin() + 1),
                      std::make_move_iterator(fields.end()));
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::string join_columns(const std::vector<std::string>& columns) {
  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ",";
    out += columns[i];
  }
  return out;
}

/// Human-readable description of why `found` does not match `expected` —
/// merge and resume failures must say WHAT differs (a schema-version bump
/// such as the `evals` column reads very differently from a changed spec).
std::string describe_schema_mismatch(const StoreSchema& found,
                                     const StoreSchema& expected) {
  if (found.kind != expected.kind) {
    return "store kind is '" + found.kind + "', expected '" + expected.kind +
           "'";
  }
  if (found.spec_hash != expected.spec_hash) {
    return "it was produced by a different spec (hash " +
           hash_to_hex(found.spec_hash) + " != " +
           hash_to_hex(expected.spec_hash) + ")";
  }
  if (found.columns != expected.columns) {
    return "same spec but a different record layout: columns [" +
           join_columns(found.columns) + "] vs expected [" +
           join_columns(expected.columns) +
           "] — the store was likely written by a different sehc version "
           "(schema bump); rerun the campaign into a fresh store";
  }
  if (found.volatile_columns != expected.volatile_columns) {
    return "volatile column count " + std::to_string(found.volatile_columns) +
           " != expected " + std::to_string(expected.volatile_columns);
  }
  return "schemas are compatible";
}

}  // namespace

ResultStore::ResultStore(StoreSchema schema, std::string path)
    : schema_(std::move(schema)),
      path_(std::move(path)),
      mutex_(std::make_unique<std::mutex>()) {
  SEHC_CHECK(!schema_.kind.empty(), "ResultStore: schema.kind must be set");
  SEHC_CHECK(schema_.spec_line.find('\n') == std::string::npos,
             "ResultStore: spec_line must be a single line");
  SEHC_CHECK(!schema_.columns.empty(), "ResultStore: schema needs columns");
  SEHC_CHECK(schema_.volatile_columns <= schema_.columns.size(),
             "ResultStore: volatile_columns exceeds column count");
}

ResultStore ResultStore::in_memory(StoreSchema schema) {
  return ResultStore(std::move(schema), "");
}

void ResultStore::adopt(std::vector<StoreRow> rows) {
  for (StoreRow& row : rows) {
    SEHC_CHECK(cells_.insert(row.cell).second,
               "ResultStore: duplicate cell " + std::to_string(row.cell) +
                   " in '" + path_ + "'");
    rows_.push_back(std::move(row));
  }
}

ResultStore ResultStore::open(const std::string& path, StoreSchema schema) {
  SEHC_CHECK(!path.empty(), "ResultStore::open: empty path");
  ResultStore store(std::move(schema), path);
  const std::optional<LogLines> log = read_log(path);
  if (!log || (log->lines.empty() && log->torn_tail.empty())) {
    replace_log(path, header_lines(store.schema_));
  } else {
    ParsedFile parsed = parse_store(log->lines, path);
    SEHC_CHECK(parsed.schema.compatible_with(store.schema_),
               "ResultStore: cannot append to '" + path + "': " +
                   describe_schema_mismatch(parsed.schema, store.schema_) +
                   "; refusing to mix records");
    store.adopt(std::move(parsed.rows));
    // Drop the torn tail so the appends below start on a line boundary.
    if (!log->torn_tail.empty()) replace_log(path, log->lines);
  }
  store.log_.emplace(path);
  return store;
}

ResultStore ResultStore::load(const std::string& path) {
  const std::optional<LogLines> log = read_log(path);
  SEHC_CHECK(log.has_value(), "ResultStore: cannot read '" + path + "'");
  ParsedFile parsed = parse_store(log->lines, path);
  ResultStore store(std::move(parsed.schema), path);
  store.adopt(std::move(parsed.rows));
  return store;  // log_ stays unset: read-only
}

ResultStore ResultStore::merge(const std::vector<std::string>& paths) {
  SEHC_CHECK(!paths.empty(), "ResultStore::merge: no input stores");
  ResultStore first = load(paths.front());
  ResultStore merged = in_memory(first.schema());
  const std::size_t deterministic =
      merged.schema_.columns.size() - merged.schema_.volatile_columns;

  auto absorb = [&](const ResultStore& input, const std::string& path) {
    SEHC_CHECK(input.schema().compatible_with(merged.schema_),
               "ResultStore::merge: '" + path + "' is incompatible with '" +
                   paths.front() + "': " +
                   describe_schema_mismatch(input.schema(), merged.schema_));
    for (const StoreRow& row : input.rows()) {
      if (!merged.contains(row.cell)) {
        merged.append(row);
        continue;
      }
      // Overlapping shards must agree on every deterministic field; the
      // first occurrence wins (volatile fields may legitimately differ).
      const auto it = std::find_if(
          merged.rows_.begin(), merged.rows_.end(),
          [&](const StoreRow& r) { return r.cell == row.cell; });
      for (std::size_t c = 0; c < deterministic; ++c) {
        // The full rows go into the message: at campaign scale (hundreds
        // of cells) the leading fields are the cell's grid coordinates
        // (class, scheduler, repetition), which is what one needs to find
        // the offending run.
        SEHC_CHECK(it->fields[c] == row.fields[c],
                   "ResultStore::merge: cell " + std::to_string(row.cell) +
                       " disagrees between stores on column '" +
                       merged.schema_.columns[c] + "': '" + it->fields[c] +
                       "' (kept, from an earlier input) vs '" +
                       row.fields[c] + "' (from " + path + ")\n  kept row: " +
                       format_row(*it, it->fields.size()) +
                       "\n  new row:  " + format_row(row, row.fields.size()));
      }
    }
  };

  absorb(first, paths.front());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    absorb(load(paths[i]), paths[i]);
  }
  return merged;
}

void ResultStore::append(StoreRow row) {
  SEHC_CHECK(row.fields.size() == schema_.columns.size(),
             "ResultStore::append: expected " +
                 std::to_string(schema_.columns.size()) + " fields, got " +
                 std::to_string(row.fields.size()));
  std::lock_guard<std::mutex> lock(*mutex_);
  SEHC_CHECK(path_.empty() || log_.has_value(),
             "ResultStore::append: store was loaded read-only");
  SEHC_CHECK(cells_.insert(row.cell).second,
             "ResultStore::append: cell " + std::to_string(row.cell) +
                 " already present");
  if (log_) {
    const std::string line = format_row(row, row.fields.size());
    if (g_torn_write_hook) {
      if (const auto torn = g_torn_write_hook(row.cell)) {
        // Simulated crash mid-append: persist only a prefix of the line
        // exactly as a killed writer would, then die without unwinding.
        // Exit code 17 lets chaos drivers distinguish the injected kill
        // from a real failure.
        log_->tear(line, *torn);
        std::_Exit(17);
      }
    }
    log_->append(line);
  }
  rows_.push_back(std::move(row));
}

std::vector<StoreRow> ResultStore::sorted_rows() const {
  std::vector<StoreRow> sorted = rows_;
  std::sort(sorted.begin(), sorted.end(),
            [](const StoreRow& a, const StoreRow& b) { return a.cell < b.cell; });
  return sorted;
}

void ResultStore::write_canonical(std::ostream& os) const {
  StoreSchema canonical = schema_;
  canonical.columns.resize(canonical.columns.size() -
                           canonical.volatile_columns);
  canonical.volatile_columns = 0;
  for (const std::string& line : header_lines(canonical)) os << line << '\n';
  for (const StoreRow& row : sorted_rows()) {
    os << format_row(row, canonical.columns.size()) << '\n';
  }
}

}  // namespace sehc
