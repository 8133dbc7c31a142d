#include "se/selection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/levels.h"
#include "workload/generator.h"

namespace sehc {
namespace {

/// One selection round into a fresh buffer.
std::vector<TaskId> select(const std::vector<double>& goodness, double bias,
                           const std::vector<int>& levels, Rng& rng) {
  std::vector<TaskId> out;
  select_tasks_into(goodness, bias, levels, rng, out);
  return out;
}

TEST(Selection, ZeroGoodnessAlwaysSelectedWithoutBias) {
  // r > 0 almost surely, so goodness-0 tasks are always selected.
  const std::vector<double> g(10, 0.0);
  const std::vector<int> levels(10, 0);
  Rng rng(1);
  const auto sel = select(g, 0.0, levels, rng);
  EXPECT_EQ(sel.size(), 10u);
}

TEST(Selection, PerfectGoodnessNeverSelectedWithoutBias) {
  const std::vector<double> g(10, 1.0);
  const std::vector<int> levels(10, 0);
  Rng rng(1);
  const auto sel = select(g, 0.0, levels, rng);
  EXPECT_TRUE(sel.empty());
}

TEST(Selection, NegativeBiasSelectsMore) {
  const std::vector<double> g(2000, 0.5);
  const std::vector<int> levels(2000, 0);
  Rng r1(2), r2(2);
  const auto neutral = select(g, 0.0, levels, r1).size();
  const auto thorough = select(g, -0.3, levels, r2).size();
  EXPECT_GT(thorough, neutral);
  // Expected rates: 0.5 vs 0.8.
  EXPECT_NEAR(static_cast<double>(neutral) / 2000.0, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(thorough) / 2000.0, 0.8, 0.05);
}

TEST(Selection, PositiveBiasSelectsFewer) {
  const std::vector<double> g(2000, 0.5);
  const std::vector<int> levels(2000, 0);
  Rng rng(3);
  const auto restricted = select(g, 0.1, levels, rng).size();
  EXPECT_NEAR(static_cast<double>(restricted) / 2000.0, 0.4, 0.05);
}

TEST(Selection, HighGoodnessStillHasNonZeroProbability) {
  // Paper: individuals with high goodness should have a non-zero
  // probability of being selected (with bias < 1 - g).
  const std::vector<double> g(5000, 0.95);
  const std::vector<int> levels(5000, 0);
  Rng rng(4);
  const auto sel = select(g, 0.0, levels, rng);
  EXPECT_GT(sel.size(), 0u);
  EXPECT_LT(sel.size(), 500u);
}

TEST(Selection, ResultSortedAscendingByLevel) {
  const Workload w = figure1_workload();
  const auto levels = task_levels(w.graph());
  const std::vector<double> g(7, 0.0);  // select everyone
  Rng rng(5);
  const auto sel = select(g, 0.0, levels, rng);
  ASSERT_EQ(sel.size(), 7u);
  EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end(), [&](TaskId a, TaskId b) {
    return levels[a] < levels[b];
  }));
}

TEST(Selection, StableWithinLevel) {
  const std::vector<double> g(4, 0.0);
  const std::vector<int> levels{1, 0, 1, 0};
  Rng rng(6);
  std::vector<TaskId> sel{7, 7};  // the round clears what the buffer held
  select_tasks_into(g, 0.0, levels, rng, sel);
  EXPECT_EQ(sel, (std::vector<TaskId>{1, 3, 0, 2}));
}

TEST(Selection, SizeMismatchThrows) {
  const std::vector<double> g(3, 0.5);
  const std::vector<int> levels(2, 0);
  Rng rng(1);
  EXPECT_THROW(select(g, 0.0, levels, rng), Error);
}

TEST(DefaultBias, FollowsPaperGuidance) {
  // Negative for small problems, positive for large ones (§4.4).
  EXPECT_LT(default_bias(10), 0.0);
  EXPECT_GE(default_bias(10), -0.3);
  EXPECT_LT(default_bias(50), 0.0);
  EXPECT_GT(default_bias(100), 0.0);
  EXPECT_LE(default_bias(100), 0.1);
  EXPECT_GT(default_bias(1000), 0.0);
}

}  // namespace
}  // namespace sehc
