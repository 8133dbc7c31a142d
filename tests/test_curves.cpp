#include "analysis/curves.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/error.h"

namespace sehc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CurveBundle, ValidateRejectsRaggedAndUnsortedGrids) {
  CurveBundle ok{{1, 2, 3}, {{5, 4, 3}, {6, 5, 4}}};
  EXPECT_NO_THROW(ok.validate());

  CurveBundle ragged{{1, 2, 3}, {{5, 4}}};
  EXPECT_THROW(ragged.validate(), Error);

  CurveBundle unsorted{{1, 3, 2}, {{5, 4, 3}}};
  EXPECT_THROW(unsorted.validate(), Error);

  CurveBundle rows_without_grid{{}, {{1.0}}};
  EXPECT_THROW(rows_without_grid.validate(), Error);

  CurveBundle empty;
  EXPECT_NO_THROW(empty.validate());
}

// The envelope of a bundle is its pointwise mean across seeds (mean_curve).
TEST(CurveEnvelope, MeanAndBand) {
  const CurveBundle bundle{{1, 2, 3}, {{6, 4, 2}, {8, 6, 4}}};
  EXPECT_EQ(mean_curve(bundle), (std::vector<double>{7, 5, 3}));
}

TEST(CurveEnvelope, InfinitySeedPropagatesToMeanAndHi) {
  // Seed 2 has no solution at the first grid point.
  const CurveBundle bundle{{1, 2}, {{6, 4}, {kInf, 6}}};
  const std::vector<double> mean = mean_curve(bundle);
  EXPECT_TRUE(std::isinf(mean[0]));
  EXPECT_DOUBLE_EQ(mean[1], 5.0);
}

TEST(CurveEnvelope, EmptyBundleThrows) {
  EXPECT_THROW(mean_curve(CurveBundle{{1, 2}, {}}), Error);
}

TEST(FirstCrossing, NoCrossingWhenBaselineStaysAhead) {
  const std::vector<double> grid{1, 2, 3};
  const Crossing c = first_crossing(grid, std::vector<double>{9, 8, 7}, std::vector<double>{8, 7, 6});
  EXPECT_FALSE(c.crosses);
  EXPECT_TRUE(std::isinf(c.x));
}

TEST(FirstCrossing, FlatEqualCurvesNeverCross) {
  const std::vector<double> grid{1, 2, 3};
  const Crossing c = first_crossing(grid, std::vector<double>{5, 5, 5}, std::vector<double>{5, 5, 5});
  EXPECT_FALSE(c.crosses);
}

TEST(FirstCrossing, CrossingAtTheFirstGridPoint) {
  // Challenger ahead from budget "zero" (the earliest sample).
  const std::vector<double> grid{1, 2, 3};
  const Crossing c = first_crossing(grid, std::vector<double>{4, 4, 4}, std::vector<double>{5, 5, 5});
  EXPECT_TRUE(c.crosses);
  EXPECT_EQ(c.index, 0u);
  EXPECT_DOUBLE_EQ(c.x, 1.0);
}

TEST(FirstCrossing, MidCurveOvertake) {
  const std::vector<double> grid{1, 2, 3, 4};
  const Crossing c = first_crossing(grid, std::vector<double>{9, 7, 5, 5}, std::vector<double>{8, 7, 6, 6});
  EXPECT_TRUE(c.crosses);
  EXPECT_EQ(c.index, 2u);
  EXPECT_DOUBLE_EQ(c.x, 3.0);
}

TEST(FirstCrossing, TransientDipDoesNotCountAsOvertake) {
  // Challenger dips below at x=2 but the baseline retakes the lead at x=3;
  // the sustained overtake only starts at x=4.
  const std::vector<double> grid{1, 2, 3, 4, 5};
  const Crossing c =
      first_crossing(grid, std::vector<double>{9, 6, 6, 4, 4},
                     std::vector<double>{8, 7, 5, 5, 5});
  EXPECT_TRUE(c.crosses);
  EXPECT_EQ(c.index, 3u);
  EXPECT_DOUBLE_EQ(c.x, 4.0);
}

TEST(FirstCrossing, EqualTailAfterStrictWinStillCounts) {
  // Strict win at x=2, then the curves merge: the overtake is sustained
  // (challenger never falls behind again).
  const std::vector<double> grid{1, 2, 3};
  const Crossing c = first_crossing(grid, std::vector<double>{9, 5, 5}, std::vector<double>{8, 6, 5});
  EXPECT_TRUE(c.crosses);
  EXPECT_EQ(c.index, 1u);
}

TEST(FirstCrossing, InfinityComparesAsNoSolution) {
  // Baseline has no solution at the first two points, challenger does:
  // finite < inf is a win from the start.
  const std::vector<double> grid{1, 2, 3};
  const Crossing c = first_crossing(grid, std::vector<double>{7, 6, 5},
                     std::vector<double>{kInf, kInf, 6});
  EXPECT_TRUE(c.crosses);
  EXPECT_EQ(c.index, 0u);
}

TEST(FirstCrossing, EmptyGridNeverCrosses) {
  EXPECT_FALSE(first_crossing({}, {}, {}).crosses);
}

TEST(FirstCrossing, MismatchedSizesThrow) {
  const std::vector<double> grid{1, 2};
  EXPECT_THROW(first_crossing(grid, std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}), Error);
}

TEST(CurveAuc, StepAreaWithImplicitZeroLeftEdge) {
  // values held on (0,1], (1,3]: 5*1 + 3*2 = 11.
  EXPECT_DOUBLE_EQ(curve_auc(std::vector<double>{1, 3},
                             std::vector<double>{5, 3}),
                   11.0);
}

TEST(CurveAuc, EmptyCurveHasZeroArea) {
  EXPECT_DOUBLE_EQ(curve_auc({}, {}), 0.0);
}

TEST(CurveAuc, InfinitySamplePropagates) {
  EXPECT_TRUE(std::isinf(curve_auc(std::vector<double>{1, 2},
                                   std::vector<double>{kInf, 3})));
}

TEST(PerformanceProfile, KnownFractions) {
  // 3 problems x 2 solvers. Ratios: A = {1, 1, 2}, B = {1.5, 1, 1}.
  const std::vector<std::vector<double>> costs{
      {10, 15},
      {20, 20},
      {30, 15},
  };
  const PerformanceProfile p =
      performance_profile({"A", "B"}, costs, {1.0, 1.5, 2.0});
  EXPECT_EQ(p.problems, 3u);
  EXPECT_EQ(p.fraction[0], (std::vector<double>{2.0 / 3, 2.0 / 3, 1.0}));
  EXPECT_EQ(p.fraction[1], (std::vector<double>{2.0 / 3, 1.0, 1.0}));
}

TEST(PerformanceProfile, TiedBestCountsForBoth) {
  const std::vector<std::vector<double>> costs{{7, 7}};
  const PerformanceProfile p = performance_profile({"A", "B"}, costs, {1.0});
  EXPECT_DOUBLE_EQ(p.fraction[0][0], 1.0);
  EXPECT_DOUBLE_EQ(p.fraction[1][0], 1.0);
}

TEST(PerformanceProfile, InfiniteCostNeverWithinTau) {
  const std::vector<std::vector<double>> costs{{5, kInf}};
  const PerformanceProfile p =
      performance_profile({"A", "B"}, costs, {1.0, 1000.0});
  EXPECT_DOUBLE_EQ(p.fraction[1][1], 0.0);
  EXPECT_DOUBLE_EQ(p.fraction[0][0], 1.0);
}

TEST(PerformanceProfile, UnsolvableProblemsAreSkipped) {
  const std::vector<std::vector<double>> costs{{kInf, kInf}, {4, 8}};
  const PerformanceProfile p = performance_profile({"A", "B"}, costs, {1.0});
  EXPECT_EQ(p.problems, 1u);
  EXPECT_DOUBLE_EQ(p.fraction[0][0], 1.0);
  EXPECT_DOUBLE_EQ(p.fraction[1][0], 0.0);
}

TEST(PerformanceProfile, ValidatesInputs) {
  EXPECT_THROW(performance_profile({}, {}, {1.0}), Error);
  EXPECT_THROW(performance_profile({"A"}, {}, {}), Error);
  EXPECT_THROW(performance_profile({"A"}, {}, {0.5}), Error);       // < 1
  EXPECT_THROW(performance_profile({"A"}, {}, {1.5, 1.2}), Error);  // order
  EXPECT_THROW(performance_profile({"A"}, {{1.0, 2.0}}, {1.0}), Error);
}

}  // namespace
}  // namespace sehc
