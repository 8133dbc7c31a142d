// Statistics engine for campaign analysis: seeded-bootstrap confidence
// intervals and paired sign / Wilcoxon signed-rank tests.
//
// Everything here is deterministic for fixed inputs: the bootstrap is
// driven by the library's own Rng (never std distributions), the sign test
// uses exact binomial arithmetic, and the Wilcoxon p-value is exact for
// n <= 25 informative pairs (the full 2^n sign-permutation distribution,
// computed by integer DP — pure arithmetic) with a tie-corrected normal
// approximation beyond, whose only libm dependency is std::exp (no
// erf/erfc/lgamma, whose accuracy varies far more across implementations).
// Reports print these numbers at fixed precision, so they are diffable and
// CI-enforceable.
//
// Convention: samples are costs (schedule lengths), so LOWER IS BETTER and
// "a wins pair i" means a[i] < b[i].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace sehc {

struct BootstrapOptions {
  /// Bootstrap resample count; more resamples narrow the Monte-Carlo error
  /// of the interval endpoints, not the interval itself.
  std::size_t resamples = 2000;
  /// Two-sided confidence level in (0, 1).
  double confidence = 0.95;
  /// Seed of the resampling stream. Callers that tabulate several groups
  /// should derive a per-group seed from stable group identity (not table
  /// order) so reports stay byte-identical under reordering.
  std::uint64_t seed = 0x5ebc0a11ULL;
};

/// A mean with a two-sided bootstrap percentile interval.
struct ConfidenceInterval {
  std::size_t n = 0;
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Seeded-bootstrap percentile CI of the sample mean. Deterministic for a
/// fixed (values, options) input. Throws sehc::Error on an empty sample;
/// a single-value sample yields the degenerate interval lo == hi == mean.
ConfidenceInterval bootstrap_mean_ci(std::span<const double> values,
                                     const BootstrapOptions& options = {});

/// Result of a paired two-sided test between cost samples a and b.
struct PairedTest {
  /// Informative pairs actually used by the test (ties are dropped).
  std::size_t pairs = 0;
  std::size_t a_wins = 0;  // a[i] < b[i]
  std::size_t b_wins = 0;  // b[i] < a[i]
  std::size_t ties = 0;    // a[i] == b[i] (excluded from `pairs`)
  /// Sign test: a_wins. Wilcoxon: W+, the rank sum of pairs where a wins.
  double statistic = 0.0;
  /// Two-sided p-value; 1.0 when there are no informative pairs.
  double p_value = 1.0;
};

/// Exact two-sided paired sign test (binomial, p = 1/2). Uses exact pmf
/// summation up to 1000 informative pairs and a continuity-corrected normal
/// approximation beyond. Requires a.size() == b.size().
PairedTest sign_test(std::span<const double> a, std::span<const double> b);

/// Two-sided Wilcoxon signed-rank test with average ranks for tied
/// |differences|. Up to 25 informative pairs the p-value is EXACT: the
/// permutation distribution of W+ over all 2^n sign assignments
/// (conditional on the observed |difference| ranks, average ranks kept for
/// ties) is enumerated by dynamic programming and
/// p = P(|W+ - mu| >= |w - mu|), which the distribution's symmetry makes
/// the standard two-sided tail sum. Beyond 25 pairs: tie-corrected,
/// continuity-corrected normal approximation. Requires
/// a.size() == b.size().
PairedTest wilcoxon_signed_rank(std::span<const double> a,
                                std::span<const double> b);

/// The largest informative-pair count for which wilcoxon_signed_rank is
/// exact (25: 2^25 sign assignments, enumerated in O(n^3) by DP).
inline constexpr std::size_t kWilcoxonExactMaxPairs = 25;

/// Standard normal CDF via the Abramowitz-Stegun 26.2.17 rational
/// approximation (|error| < 7.5e-8). The only libm call is std::exp;
/// its last-ulp variation across libm versions is ~9 orders of magnitude
/// below the 4-decimal precision reports print p-values at.
double normal_cdf(double z);

}  // namespace sehc
