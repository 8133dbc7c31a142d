#include "core/table.h"

#include <algorithm>
#include <cstdio>

#include "core/error.h"

namespace sehc {

std::string format_fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  SEHC_CHECK(!headers_.empty(), "Table: need at least one column");
}

Table& Table::begin_row() {
  cells_.emplace_back();
  cells_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add(std::string cell) {
  SEHC_CHECK(!cells_.empty(), "Table::add: call begin_row first");
  SEHC_CHECK(cells_.back().size() < headers_.size(),
             "Table::add: row already full");
  cells_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  return add(format_fixed(value, precision));
}

Table& Table::add(std::size_t value) { return add(std::to_string(value)); }

void Table::add_row(std::vector<std::string> row) {
  SEHC_CHECK(row.size() == headers_.size(), "Table::add_row: width mismatch");
  cells_.push_back(std::move(row));
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  SEHC_CHECK(row < cells_.size() && col < cells_[row].size(),
             "Table::cell: out of range");
  return cells_[row][col];
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(headers_[c]);
  }
  os << '\n';
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  }
}

void Table::write_markdown(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : cells_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };

  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(width[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : cells_) emit_row(row);
}

}  // namespace sehc
