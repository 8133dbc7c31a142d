// Tabular output for experiment results: CSV and aligned-markdown emitters,
// the library's two number formatters, and the CSV field codec that every
// CSV file the library writes and reads (the result store and both campaign
// sidecars, schedule CSVs, report tables) shares.
//
// The figure benches print CSV series (easy to plot) followed by markdown
// summary tables (easy to read in a terminal or paste into Markdown).
#pragma once

#include <cstddef>
#include <cstdint>
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

/// Quotes `field` for CSV emission when it contains a comma, quote or
/// newline (doubling its quotes); returns it unchanged otherwise.
std::string csv_escape(const std::string& field);

/// Splits one CSV line into fields. RFC-4180-ish: a field wrapped in double
/// quotes may contain commas and doubled quotes ("" -> "). Throws
/// sehc::Error (with `context`) on a quote that never closes.
std::vector<std::string> split_csv_line(
    const std::string& line, const std::string& context = "split_csv_line");

/// Parses a double field; throws sehc::Error (with `context`) on garbage.
/// "inf" / "-inf" parse to the infinities, matching the writers.
double parse_csv_double(const std::string& field, const std::string& context);

/// Parses an unsigned integer field as parse_whole does (digits only, no
/// sign, no overflow); throws sehc::Error (with `context`) otherwise.
std::uint64_t parse_csv_u64(const std::string& field,
                            const std::string& context);

/// The largest `precision` format_fixed takes.
constexpr int kMaxFixedPrecision = 64;

/// Formats a double with fixed precision: the text of printf "%.*f" in the
/// C locale, for every double (DBL_MAX has 309 integer digits), with no
/// locale surprises. Throws Error unless 0 <= precision <=
/// kMaxFixedPrecision.
std::string format_fixed(double value, int precision);

/// The most chars write_g17 writes: "-2.2250738585072014e-308".
constexpr std::size_t kG17MaxChars = 24;

/// Writes `value` as printf "%.17g" does in the C locale (17 significant
/// digits, which round-trip every double) to [first, first +
/// kG17MaxChars) and returns the end of the text. Values that
/// write_g17_integer takes go through it; every other value goes to
/// std::to_chars(general, 17).
char* write_g17(char* first, double value);

/// write_g17's integer path, for 1 <= value < 1e17 (every time the workload
/// generator makes): writes the same text as write_g17 and returns its end,
/// or writes nothing and returns nullptr for any other value.
char* write_g17_integer(char* first, double value);

}  // namespace sehc
