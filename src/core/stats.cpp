#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/error.h"

namespace sehc {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::cv() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

Accumulator summarize(std::span<const double> values) {
  Accumulator acc;
  for (double v : values) acc.add(v);
  return acc;
}

double percentile(std::span<const double> values, double p) {
  SEHC_CHECK(!values.empty(), "percentile: empty sample");
  SEHC_CHECK(p >= 0.0 && p <= 100.0, "percentile: p must be in [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace sehc
