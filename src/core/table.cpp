#include "core/table.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/error.h"
#include "core/options.h"

namespace sehc {

std::string format_fixed(double value, int precision) {
  SEHC_CHECK(precision >= 0 && precision <= kMaxFixedPrecision,
             "format_fixed: precision out of range");
  // A sign, up to 309 integer digits (DBL_MAX), the point, the decimals.
  char buf[1 + 309 + 1 + kMaxFixedPrecision];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, value,
                                        std::chars_format::fixed, precision)
                              .ptr);
}

namespace {

/// "00", "01", ..., "99".
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// 10^i for i in [0, 17], as integers and as (exact) doubles.
constexpr auto kPow10 = [] {
  std::array<std::uint64_t, 18> pow{1};
  for (std::size_t i = 1; i < pow.size(); ++i) pow[i] = pow[i - 1] * 10;
  return pow;
}();
constexpr auto kPow10Double = [] {
  std::array<double, 18> pow{};
  for (std::size_t i = 0; i < pow.size(); ++i) {
    pow[i] = static_cast<double>(kPow10[i]);
  }
  return pow;
}();

/// Writes the 8 digits of v < 10^8, leading zeros included.
void write_8_digits(char* p, std::uint32_t v) {
  const std::uint32_t hi = v / 10000, lo = v % 10000;
  std::memcpy(p, &kDigitPairs[2 * (hi / 100)], 2);
  std::memcpy(p + 2, &kDigitPairs[2 * (hi % 100)], 2);
  std::memcpy(p + 4, &kDigitPairs[2 * (lo / 100)], 2);
  std::memcpy(p + 6, &kDigitPairs[2 * (lo % 100)], 2);
}

}  // namespace

char* write_g17_integer(char* first, double value) {
  if (!(value >= 1.0 && value < 1e17)) return nullptr;  // nan included
  // value = m * 2^q with a 53-bit m and 2^e <= value < 2^(e+1), e in [0, 56].
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int e = static_cast<int>(bits >> 52) - 1023;
  const int q = e - 52;
  const std::uint64_t m =
      (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
  // d = floor(log10 value) is floor(e * log10 2) (78913 / 2^18 gets it
  // right for every e below 1650) or one more; d is in [0, 16].
  int d = (e * 78913) >> 18;
  if (value >= kPow10Double[d + 1]) ++d;
  // The 17 significant digits, n = round-half-even(m * 10^(16-d) * 2^q).
  // The product is below 2^53 * 10^16 < 2^107, and q >= 0 is exact.
  // Rounding never carries n to 10^17: the largest double below 10^(d+1)
  // lies at least 10^(d+1) / 2^53 below it, over 11 units of the 17th
  // digit, so its digits stay in its decade (9.9999999999999982 below 10).
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(m) * kPow10[16 - d];
  std::uint64_t n;
  if (q >= 0) {
    n = static_cast<std::uint64_t>(scaled) << q;
  } else {
    // A shift below 64 in 64-bit halves: n < 10^17 and the dropped bits
    // fit in the low half.
    const int shift = -q;
    const auto lo = static_cast<std::uint64_t>(scaled);
    const auto hi = static_cast<std::uint64_t>(scaled >> 64);
    n = (lo >> shift) | (hi << (64 - shift));
    const std::uint64_t rest = lo & ((std::uint64_t{1} << shift) - 1);
    const std::uint64_t half = std::uint64_t{1} << (shift - 1);
    if (rest > half || (rest == half && (n & 1) != 0)) ++n;
  }
  // The digits go to first[1, 18); the integer ones then move one place
  // left to make room for the point ("%g"'s fixed layout: d + 1 integer
  // digits, then the fraction without its trailing zeros, and no point
  // when none is left).
  char* const digits = first + 1;
  digits[0] = static_cast<char>('0' + n / kPow10[16]);
  const std::uint64_t low16 = n % kPow10[16];
  write_8_digits(digits + 1, static_cast<std::uint32_t>(low16 / kPow10[8]));
  write_8_digits(digits + 9, static_cast<std::uint32_t>(low16 % kPow10[8]));
  for (int i = 0; i <= d; ++i) first[i] = digits[i];
  first[d + 1] = '.';
  char* end = first + 18;
  while (end[-1] == '0') --end;
  return end[-1] == '.' ? end - 1 : end;
}

char* write_g17(char* first, double value) {
  if (char* end = write_g17_integer(first, value)) return end;
  return std::to_chars(first, first + kG17MaxChars, value,
                       std::chars_format::general, 17)
      .ptr;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> split_csv_line(const std::string& line,
                                        const std::string& context) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  SEHC_CHECK(!quoted, context + ": unterminated quote in: " + line);
  fields.push_back(std::move(field));
  return fields;
}

double parse_csv_double(const std::string& field, const std::string& context) {
  if (field == "inf") return std::numeric_limits<double>::infinity();
  if (field == "-inf") return -std::numeric_limits<double>::infinity();
  const char* begin = field.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  SEHC_CHECK(end != begin && *end == '\0' && !field.empty(),
             context + ": expected a number, got '" + field + "'");
  return value;
}

std::uint64_t parse_csv_u64(const std::string& field,
                            const std::string& context) {
  const auto value = parse_whole<std::uint64_t>(field);
  SEHC_CHECK(value.has_value(),
             context + ": expected an unsigned integer, got '" + field + "'");
  return *value;
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
