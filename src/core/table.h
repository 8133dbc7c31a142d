// Tabular output for experiment results: CSV and aligned-markdown emitters.
//
// The figure benches print CSV series (easy to plot) followed by markdown
// summary tables (easy to read in a terminal or paste into Markdown).
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace sehc {

/// A small column-oriented table. Cells are stored as strings; numeric
/// helpers format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  std::size_t columns() const { return headers_.size(); }
  std::size_t rows() const { return cells_.size(); }

  /// Starts a new row; subsequent add_* calls fill it left to right.
  Table& begin_row();
  Table& add(std::string cell);
  Table& add(double value, int precision = 3);
  Table& add(std::size_t value);
  Table& add(long long value);
  Table& add(int value);

  /// Convenience: appends a full row of preformatted cells.
  void add_row(std::vector<std::string> row);

  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Emits RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void write_csv(std::ostream& os) const;

  /// Emits a column-aligned markdown table.
  void write_markdown(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

/// Formats a double with fixed precision (no trailing locale surprises).
std::string format_fixed(double value, int precision);

}  // namespace sehc
