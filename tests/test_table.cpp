#include "core/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "core/error.h"

namespace sehc {
namespace {

TEST(Table, CsvRoundTripBasics) {
  Table t({"a", "b"});
  t.begin_row().add("x").add(1.5, 1);
  t.begin_row().add("y").add(std::size_t{7});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,1.5\ny,7\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"v"});
  t.begin_row().add("has,comma");
  t.begin_row().add("has\"quote");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST(Table, MarkdownAlignsColumns) {
  Table t({"name", "x"});
  t.begin_row().add("longer-name").add("1");
  std::ostringstream os;
  t.write_markdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name        | x |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 1 |"), std::string::npos);
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Table, OverfilledRowThrows) {
  Table t({"only"});
  t.begin_row().add("1");
  EXPECT_THROW(t.add("2"), Error);
}

TEST(Table, AddWithoutRowThrows) {
  Table t({"only"});
  EXPECT_THROW(t.add("1"), Error);
}

TEST(Table, AddRowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
}

TEST(Table, CellAccess) {
  Table t({"a"});
  t.add_row({"v"});
  EXPECT_EQ(t.cell(0, 0), "v");
  EXPECT_THROW(t.cell(1, 0), Error);
}

TEST(FormatFixed, Precision) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

std::string iostream_fixed(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

TEST(FormatFixed, HugeValuesKeepEveryDigit) {
  constexpr double kMax = std::numeric_limits<double>::max();
  for (const double v : {1e300, -1e300, kMax, -kMax, 1e56, 0.125, -0.0}) {
    for (int precision = 2; precision <= 6; ++precision) {
      EXPECT_EQ(format_fixed(v, precision), iostream_fixed(v, precision))
          << v << " at precision " << precision;
    }
  }
  EXPECT_EQ(format_fixed(kMax, 0).size(), 309u);
  EXPECT_EQ(format_fixed(-kMax, kMaxFixedPrecision),
            iostream_fixed(-kMax, kMaxFixedPrecision));
}

TEST(FormatFixed, PrecisionOutOfRangeThrows) {
  EXPECT_THROW(format_fixed(1.0, -1), Error);
  EXPECT_THROW(format_fixed(1.0, kMaxFixedPrecision + 1), Error);
}

std::string g17(double value) {
  char buf[kG17MaxChars];
  return std::string(buf, write_g17(buf, value));
}

std::string printf_g17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

TEST(WriteG17, MatchesPrintfOnSpecialValues) {
  using limits = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, limits::denorm_min(), 2.2250738585072009e-308,
        limits::min(), -limits::min(), 0.1, 0.5, 1.0, 1.5, 18.3, 100.0,
        3277.0, 1234.5, 9999999999999.998, 1e16, std::nextafter(1e17, 0.0),
        1e17, std::nextafter(1e17, 1e18), 1e300, limits::max(),
        -limits::max(), -1.5, limits::infinity(), -limits::infinity(),
        limits::quiet_NaN()}) {
    EXPECT_EQ(g17(v), printf_g17(v));
  }
}

TEST(WriteG17, IntegerPathTakesOneUpToBelow1e17) {
  using limits = std::numeric_limits<double>;
  char buf[kG17MaxChars];
  for (const double v :
       {1.0, 1.5, 3277.0, 0x1p53, std::nextafter(1e17, 0.0)}) {
    char* end = write_g17_integer(buf, v);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(std::string(buf, end), printf_g17(v));
  }
  for (const double v :
       {std::nextafter(1.0, 0.0), 0.0, -0.0, -1.0, 1e17, limits::max(),
        limits::denorm_min(), limits::infinity(), limits::quiet_NaN()}) {
    EXPECT_EQ(write_g17_integer(buf, v), nullptr) << v;
  }
}

TEST(WriteG17, TiesAtTheSeventeenthDigitRoundHalfEven) {
  EXPECT_EQ(g17(0x1p50 + 0.25), "1125899906842624.2");
  EXPECT_EQ(g17(0x1p50 + 0.75), "1125899906842624.8");
  EXPECT_EQ(g17(0x1p50 + 1.25), "1125899906842625.2");
  EXPECT_EQ(g17(0x1p50 + 1.75), "1125899906842625.8");
}

TEST(WriteG17, LargestDoubleBelowEachPowerOfTenStaysInItsDecade) {
  // Below 10^k the doubles lie over 11 units of the 17th digit apart from
  // it, so its 17 digits never round up into the next decade.
  double pow10 = 10;
  for (std::size_t k = 1; k <= 17; ++k, pow10 *= 10) {
    const double below = std::nextafter(pow10, 0.0);
    const std::string text = g17(below);
    EXPECT_EQ(text, printf_g17(below));
    EXPECT_EQ(std::min(text.find('.'), text.size()), k) << text;
    EXPECT_EQ(text[0], '9') << text;
  }
}

}  // namespace
}  // namespace sehc
