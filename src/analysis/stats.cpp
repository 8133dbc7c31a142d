#include "analysis/stats.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/stats.h"

namespace sehc {

ConfidenceInterval bootstrap_mean_ci(std::span<const double> values,
                                     const BootstrapOptions& options) {
  SEHC_CHECK(!values.empty(), "bootstrap_mean_ci: empty sample");
  SEHC_CHECK(options.resamples > 0, "bootstrap_mean_ci: resamples must be >= 1");
  SEHC_CHECK(options.confidence > 0.0 && options.confidence < 1.0,
             "bootstrap_mean_ci: confidence must be in (0, 1)");

  ConfidenceInterval ci;
  ci.n = values.size();
  ci.mean = summarize(values).mean();
  if (values.size() == 1) {
    // One seed: the resampling distribution is a point mass; report the
    // degenerate interval instead of pretending to precision.
    ci.lo = ci.hi = ci.mean;
    return ci;
  }

  Rng rng(options.seed);
  std::vector<double> means;
  means.reserve(options.resamples);
  const double n = static_cast<double>(values.size());
  for (std::size_t r = 0; r < options.resamples; ++r) {
    double sum = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      sum += values[rng.index(values.size())];
    }
    means.push_back(sum / n);
  }
  const double tail = (1.0 - options.confidence) / 2.0 * 100.0;
  ci.lo = percentile(means, tail);
  ci.hi = percentile(means, 100.0 - tail);
  return ci;
}

namespace {

/// Tallies wins/losses/ties into a PairedTest shell.
PairedTest tally_pairs(std::span<const double> a, std::span<const double> b,
                       const std::string& context) {
  SEHC_CHECK(a.size() == b.size(), context + ": samples must be paired");
  PairedTest t;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) ++t.a_wins;
    else if (b[i] < a[i]) ++t.b_wins;
    else ++t.ties;
  }
  t.pairs = t.a_wins + t.b_wins;
  return t;
}

/// Exact two-sided binomial(n, 1/2) p-value for observing `k` successes:
/// sums the pmf of every outcome at most as probable as k. Pure arithmetic
/// (iterative pmf recurrence), so it is deterministic across platforms.
double binomial_two_sided_p(std::size_t k, std::size_t n) {
  // pmf(i+1) = pmf(i) * (n-i) / (i+1); start from pmf(0) = 0.5^n.
  std::vector<double> pmf(n + 1);
  pmf[0] = std::ldexp(1.0, -static_cast<int>(n));  // exact 2^-n
  for (std::size_t i = 0; i < n; ++i) {
    pmf[i + 1] = pmf[i] * static_cast<double>(n - i) /
                 static_cast<double>(i + 1);
  }
  const double pk = pmf[k];
  double p = 0.0;
  // Tolerate last-ulp wobble in the recurrence when comparing pmf values.
  const double slack = pk * 1e-12;
  for (std::size_t i = 0; i <= n; ++i) {
    if (pmf[i] <= pk + slack) p += pmf[i];
  }
  return std::min(1.0, p);
}

}  // namespace

double normal_cdf(double z) {
  // Abramowitz & Stegun 26.2.17 (|error| < 7.5e-8). Plain polynomial
  // arithmetic plus exp(); no erf/erfc, whose accuracy varies across libm.
  if (z < 0.0) return 1.0 - normal_cdf(-z);
  const double t = 1.0 / (1.0 + 0.2316419 * z);
  const double poly =
      t * (0.319381530 +
           t * (-0.356563782 +
                t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
  const double pdf = 0.3989422804014327 * std::exp(-0.5 * z * z);
  return 1.0 - pdf * poly;
}

PairedTest sign_test(std::span<const double> a, std::span<const double> b) {
  PairedTest t = tally_pairs(a, b, "sign_test");
  t.statistic = static_cast<double>(t.a_wins);
  if (t.pairs == 0) return t;  // p stays 1.0

  if (t.pairs <= 1000) {
    t.p_value = binomial_two_sided_p(t.a_wins, t.pairs);
  } else {
    // Continuity-corrected normal approximation for very large n.
    const double n = static_cast<double>(t.pairs);
    const double k = static_cast<double>(t.a_wins);
    const double z = (std::abs(k - n / 2.0) - 0.5) / std::sqrt(n / 4.0);
    t.p_value = std::min(1.0, 2.0 * (1.0 - normal_cdf(std::max(0.0, z))));
  }
  return t;
}

namespace {

/// Exact two-sided p-value of the Wilcoxon signed-rank statistic for the
/// observed rank multiset, via the permutation distribution over all 2^n
/// sign assignments. Works in DOUBLED ranks so average ranks for ties
/// (half-integers) become integers: counts[s] = number of sign assignments
/// whose positive doubled-rank sum is s. The counts are integers <= 2^n
/// (exact in a double for n <= 25), and the distribution is symmetric
/// about half the total, so the two-sided tail is
/// P(|W2 - total/2| >= |w2 - total/2|).
double wilcoxon_exact_two_sided_p(const std::vector<int>& doubled_ranks,
                                  double w_plus) {
  int total = 0;
  for (const int r : doubled_ranks) total += r;
  std::vector<double> counts(static_cast<std::size_t>(total) + 1, 0.0);
  counts[0] = 1.0;
  int reached = 0;
  for (const int r : doubled_ranks) {
    reached += r;
    for (int s = reached; s >= r; --s) {
      counts[static_cast<std::size_t>(s)] +=
          counts[static_cast<std::size_t>(s - r)];
    }
  }
  // w_plus is a sum of (possibly half-integer) ranks: 2 * w_plus is an
  // integer up to rounding noise.
  const int w2 = static_cast<int>(std::lround(2.0 * w_plus));
  const int dev = std::abs(2 * w2 - total);  // |W2 - total/2| doubled again
  double tail = 0.0;
  double all = 0.0;
  for (int s = 0; s <= total; ++s) {
    const double c = counts[static_cast<std::size_t>(s)];
    all += c;
    if (std::abs(2 * s - total) >= dev) tail += c;
  }
  return std::min(1.0, tail / all);
}

}  // namespace

PairedTest wilcoxon_signed_rank(std::span<const double> a,
                                std::span<const double> b) {
  PairedTest t = tally_pairs(a, b, "wilcoxon_signed_rank");
  if (t.pairs == 0) return t;  // p stays 1.0, statistic 0

  // Nonzero differences sorted by magnitude; ranks average over ties.
  struct Diff {
    double magnitude;
    bool a_wins;
  };
  std::vector<Diff> diffs;
  diffs.reserve(t.pairs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    diffs.push_back({std::abs(a[i] - b[i]), a[i] < b[i]});
  }
  std::sort(diffs.begin(), diffs.end(),
            [](const Diff& x, const Diff& y) {
              return x.magnitude < y.magnitude;
            });

  const double n = static_cast<double>(diffs.size());
  double w_plus = 0.0;       // rank sum of pairs where a wins
  double tie_correction = 0.0;  // sum over tie groups of (g^3 - g)
  std::vector<int> doubled_ranks;  // 2 x rank of every pair (integers)
  doubled_ranks.reserve(diffs.size());
  for (std::size_t i = 0; i < diffs.size();) {
    std::size_t j = i;
    while (j < diffs.size() && diffs[j].magnitude == diffs[i].magnitude) ++j;
    const double group = static_cast<double>(j - i);
    // Average 1-based rank of positions [i, j); doubled it is the exact
    // integer (i + 1) + j.
    const double rank = (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k) {
      if (diffs[k].a_wins) w_plus += rank;
      doubled_ranks.push_back(static_cast<int>(i + 1 + j));
    }
    tie_correction += group * group * group - group;
    i = j;
  }
  t.statistic = w_plus;

  if (diffs.size() <= kWilcoxonExactMaxPairs) {
    // Small-n regime: the normal approximation is visibly off (at n = 2 it
    // reports 0.37 where the exact answer is 0.50); enumerate instead.
    t.p_value = wilcoxon_exact_two_sided_p(doubled_ranks, w_plus);
    return t;
  }

  const double mu = n * (n + 1.0) / 4.0;
  const double sigma2 =
      n * (n + 1.0) * (2.0 * n + 1.0) / 24.0 - tie_correction / 48.0;
  if (sigma2 <= 0.0) return t;  // all magnitudes tied away: no evidence
  const double z =
      (std::abs(w_plus - mu) - 0.5) / std::sqrt(sigma2);
  t.p_value = std::min(1.0, 2.0 * (1.0 - normal_cdf(std::max(0.0, z))));
  return t;
}

}  // namespace sehc
