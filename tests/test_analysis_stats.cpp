#include "analysis/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.h"

namespace sehc {
namespace {

TEST(BootstrapCI, EmptySampleThrows) {
  EXPECT_THROW(bootstrap_mean_ci({}), Error);
}

TEST(BootstrapCI, SingleValueIsDegenerate) {
  const std::vector<double> one{42.5};
  const ConfidenceInterval ci = bootstrap_mean_ci(one);
  EXPECT_EQ(ci.n, 1u);
  EXPECT_DOUBLE_EQ(ci.mean, 42.5);
  EXPECT_DOUBLE_EQ(ci.lo, 42.5);
  EXPECT_DOUBLE_EQ(ci.hi, 42.5);
}

TEST(BootstrapCI, DeterministicAndOrdered) {
  const std::vector<double> values{3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3};
  const ConfidenceInterval a = bootstrap_mean_ci(values);
  const ConfidenceInterval b = bootstrap_mean_ci(values);
  EXPECT_EQ(a.lo, b.lo);  // bit-identical: seeded resampling
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_LE(a.lo, a.mean);
  EXPECT_GE(a.hi, a.mean);
  EXPECT_LT(a.lo, a.hi);
  // The interval tightens around the mean relative to the sample range.
  EXPECT_GT(a.lo, 1.0);
  EXPECT_LT(a.hi, 9.0);
}

TEST(BootstrapCI, SeedChangesResamplingStream) {
  // Enough distinct values that two resampling streams matching on both
  // interpolated percentile endpoints is practically impossible.
  std::vector<double> values;
  for (int i = 0; i < 24; ++i) {
    values.push_back(10.0 + 3.7 * static_cast<double>(i % 7) +
                     0.013 * static_cast<double>(i * i));
  }
  BootstrapOptions other;
  other.seed ^= 0xabcdef;
  const ConfidenceInterval a = bootstrap_mean_ci(values);
  const ConfidenceInterval b = bootstrap_mean_ci(values, other);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_TRUE(a.lo != b.lo || a.hi != b.hi);
}

TEST(BootstrapCI, RejectsBadOptions) {
  const std::vector<double> values{1.0, 2.0};
  BootstrapOptions bad;
  bad.resamples = 0;
  EXPECT_THROW(bootstrap_mean_ci(values, bad), Error);
  bad = BootstrapOptions{};
  bad.confidence = 1.0;
  EXPECT_THROW(bootstrap_mean_ci(values, bad), Error);
}

TEST(SignTest, ExactBinomialPValues) {
  // 5 pairs, a always wins: two-sided p = 2 * (1/2)^5 = 0.0625.
  const std::vector<double> a{1, 1, 1, 1, 1};
  const std::vector<double> b{2, 2, 2, 2, 2};
  const PairedTest t = sign_test(a, b);
  EXPECT_EQ(t.pairs, 5u);
  EXPECT_EQ(t.a_wins, 5u);
  EXPECT_EQ(t.b_wins, 0u);
  EXPECT_NEAR(t.p_value, 0.0625, 1e-12);
}

TEST(SignTest, BalancedSplitIsInsignificant) {
  // 2-2: every outcome is at most as probable as k=2, so p = 1.
  const std::vector<double> a{1, 1, 3, 3};
  const std::vector<double> b{2, 2, 2, 2};
  const PairedTest t = sign_test(a, b);
  EXPECT_EQ(t.a_wins, 2u);
  EXPECT_EQ(t.b_wins, 2u);
  EXPECT_DOUBLE_EQ(t.p_value, 1.0);
}

TEST(SignTest, TiesAreDropped) {
  const std::vector<double> a{1, 2, 2, 2};
  const std::vector<double> b{2, 2, 2, 2};
  const PairedTest t = sign_test(a, b);
  EXPECT_EQ(t.pairs, 1u);
  EXPECT_EQ(t.ties, 3u);
  EXPECT_EQ(t.a_wins, 1u);
  EXPECT_DOUBLE_EQ(t.p_value, 1.0);  // 1 informative pair: no evidence
}

TEST(SignTest, AllTiesGivePOne) {
  const std::vector<double> a{2, 2};
  const std::vector<double> b{2, 2};
  const PairedTest t = sign_test(a, b);
  EXPECT_EQ(t.pairs, 0u);
  EXPECT_DOUBLE_EQ(t.p_value, 1.0);
}

TEST(SignTest, MismatchedSizesThrow) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(sign_test(a, b), Error);
}

TEST(Wilcoxon, KnownStatistic) {
  // Differences b - a: +2, +4, -1, +3 -> |d| ranks: 1:-1(rank 1),
  // 2:+2(rank 2), 3:+3(rank 3), 4:+4(rank 4). a wins where a < b:
  // W+ = 2 + 3 + 4 = 9.
  const std::vector<double> a{1, 1, 3, 1};
  const std::vector<double> b{3, 5, 2, 4};
  const PairedTest t = wilcoxon_signed_rank(a, b);
  EXPECT_EQ(t.pairs, 4u);
  EXPECT_DOUBLE_EQ(t.statistic, 9.0);
  EXPECT_GT(t.p_value, 0.0);
  EXPECT_LE(t.p_value, 1.0);
}

TEST(Wilcoxon, AverageRanksForTiedMagnitudes) {
  // Differences: +1, +1, -1, +2. |d| = 1,1,1 share ranks (1+2+3)/3 = 2,
  // |2| has rank 4. W+ = 2 + 2 + 4 = 8.
  const std::vector<double> a{1, 1, 2, 1};
  const std::vector<double> b{2, 2, 1, 3};
  const PairedTest t = wilcoxon_signed_rank(a, b);
  EXPECT_DOUBLE_EQ(t.statistic, 8.0);
}

TEST(Wilcoxon, ExactSmallNPValuesMatchHandComputation) {
  // n = 2, distinct magnitudes, a wins both: W+ = 3. The permutation
  // distribution over the 4 sign assignments is uniform on {0, 1, 2, 3},
  // so the two-sided p is P(W in {0, 3}) = 0.5. (The normal approximation
  // this replaced reported 0.3711 here.)
  {
    const std::vector<double> a{1.0, 1.0};
    const std::vector<double> b{2.0, 4.0};
    const PairedTest t = wilcoxon_signed_rank(a, b);
    EXPECT_DOUBLE_EQ(t.statistic, 3.0);
    EXPECT_DOUBLE_EQ(t.p_value, 0.5);
  }
  // n = 3, a wins all: W+ = 6, p = P(W in {0, 6}) = 2/8 = 0.25.
  {
    const std::vector<double> a{1.0, 1.0, 1.0};
    const std::vector<double> b{2.0, 4.0, 9.0};
    const PairedTest t = wilcoxon_signed_rank(a, b);
    EXPECT_DOUBLE_EQ(t.statistic, 6.0);
    EXPECT_DOUBLE_EQ(t.p_value, 0.25);
  }
  // n = 4, wins at ranks 2, 3, 4 and a loss at rank 1: W+ = 9, mu = 5.
  // Subset sums of {1,2,3,4} at distance >= 4 from 5: {0, 1, 9, 10}, one
  // assignment each of 16 -> p = 4/16 = 0.25.
  {
    const std::vector<double> a{1.0, 1.0, 1.0, 3.0};
    const std::vector<double> b{3.0, 4.0, 5.0, 2.0};
    const PairedTest t = wilcoxon_signed_rank(a, b);
    EXPECT_DOUBLE_EQ(t.statistic, 9.0);
    EXPECT_DOUBLE_EQ(t.p_value, 0.25);
  }
  // n = 5, a wins all: W+ = 15, p = 2/32 = 0.0625.
  {
    const std::vector<double> a{1, 1, 1, 1, 1};
    const std::vector<double> b{2, 4, 9, 17, 32};
    const PairedTest t = wilcoxon_signed_rank(a, b);
    EXPECT_DOUBLE_EQ(t.statistic, 15.0);
    EXPECT_DOUBLE_EQ(t.p_value, 0.0625);
  }
}

TEST(Wilcoxon, ExactPValueHandlesTiedMagnitudes) {
  // Differences: -1, +1, -2 -> |d| = {1, 1, 2}: the two 1s share rank 1.5,
  // the 2 has rank 3. a wins ranks 1.5 and 3: W+ = 4.5, mu = 3. Doubled
  // rank multiset {3, 3, 6}: subset-sum counts 0:1, 3:2, 6:2, 9:2, 12:1.
  // |sum - 6| >= |9 - 6| holds for sums {0, 3, 9, 12} -> p = 6/8 = 0.75.
  const std::vector<double> a{1.0, 3.0, 1.0};
  const std::vector<double> b{2.0, 2.0, 3.0};
  const PairedTest t = wilcoxon_signed_rank(a, b);
  EXPECT_EQ(t.pairs, 3u);
  EXPECT_DOUBLE_EQ(t.statistic, 4.5);
  EXPECT_DOUBLE_EQ(t.p_value, 0.75);
}

TEST(Wilcoxon, ExactAndApproximateRegimesMeetSanely) {
  // At the n = 25 boundary the exact path runs; at 26 the tie-corrected
  // normal approximation takes over. Both must yield sane, similar tails
  // for the same strongly one-sided data.
  auto one_sided = [](std::size_t n) {
    std::vector<double> a, b;
    for (std::size_t i = 0; i < n; ++i) {
      a.push_back(static_cast<double>(i));
      b.push_back(static_cast<double>(i) + 1.0 +
                  0.01 * static_cast<double>(i));
    }
    return wilcoxon_signed_rank(a, b);
  };
  const PairedTest exact = one_sided(kWilcoxonExactMaxPairs);
  const PairedTest approx = one_sided(kWilcoxonExactMaxPairs + 1);
  // All-wins: exact two-sided p is exactly 2 / 2^25.
  EXPECT_DOUBLE_EQ(exact.p_value, std::ldexp(2.0, -25));
  EXPECT_GT(approx.p_value, 0.0);
  EXPECT_LT(approx.p_value, 1e-4);
}

TEST(Wilcoxon, StrongOneSidedEvidenceHasSmallP) {
  std::vector<double> a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(static_cast<double>(i));
    b.push_back(static_cast<double>(i) + 1.0 +
                0.1 * static_cast<double>(i % 3));
  }
  const PairedTest t = wilcoxon_signed_rank(a, b);
  EXPECT_EQ(t.a_wins, 20u);
  EXPECT_LT(t.p_value, 0.001);
}

TEST(Wilcoxon, AllTiesGivePOne) {
  const std::vector<double> a{1, 2, 3};
  const PairedTest t = wilcoxon_signed_rank(a, a);
  EXPECT_EQ(t.pairs, 0u);
  EXPECT_DOUBLE_EQ(t.p_value, 1.0);
}

TEST(NormalCdf, MatchesKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-7);
  EXPECT_NEAR(normal_cdf(1.96), 0.9750021, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.96), 0.0249979, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501, 1e-6);
}

}  // namespace
}  // namespace sehc
