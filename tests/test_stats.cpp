#include "core/stats.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/error.h"

namespace sehc {
namespace {

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.sum(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator a;
  a.add(5.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Accumulator, KnownSample) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, CvZeroMean) {
  Accumulator a;
  a.add(-1.0);
  a.add(1.0);
  EXPECT_EQ(a.cv(), 0.0);  // mean 0 guarded
}

TEST(Accumulator, CvMatchesDefinition) {
  Accumulator a;
  for (double x : {10.0, 20.0, 30.0}) a.add(x);
  EXPECT_NEAR(a.cv(), a.stddev() / a.mean(), 1e-12);
}

TEST(Summarize, MatchesManualAccumulation) {
  std::vector<double> v{1.0, 2.0, 3.0};
  const Accumulator a = summarize(v);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, EmptyThrows) {
  std::vector<double> v;
  EXPECT_THROW(percentile(v, 50.0), Error);
}

TEST(Percentile, OutOfRangePThrows) {
  std::vector<double> v{1.0};
  EXPECT_THROW(percentile(v, -1.0), Error);
  EXPECT_THROW(percentile(v, 101.0), Error);
}

}  // namespace
}  // namespace sehc
