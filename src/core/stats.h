// Streaming statistics accumulators used by workload metrics and the
// experiment harness.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace sehc {

/// Welford-style streaming accumulator: mean / variance / min / max / count.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  /// Coefficient of variation (stddev / mean); 0 when mean is 0.
  double cv() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Summarizes a whole span at once.
Accumulator summarize(std::span<const double> values);

/// Exact percentile (linear interpolation) of a sample; copies + sorts.
double percentile(std::span<const double> values, double p);

}  // namespace sehc
