#include "workload/structured.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dag/levels.h"
#include "dag/topo.h"

namespace sehc {
namespace {

std::size_t num_sources(const TaskGraph& g) {
  std::size_t n = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) n += g.preds(t).empty() ? 1 : 0;
  return n;
}

std::size_t num_sinks(const TaskGraph& g) {
  std::size_t n = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) n += g.succs(t).empty() ? 1 : 0;
  return n;
}

/// The most tasks any one DAG level holds.
std::size_t widest_level(const TaskGraph& g) {
  std::size_t width = 0;
  for (const auto& level : tasks_by_level(g)) {
    width = std::max(width, level.size());
  }
  return width;
}

TEST(Structured, Chain) {
  const TaskGraph g = chain_dag(6);
  EXPECT_EQ(g.num_tasks(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(num_levels(g), 6);
}

TEST(Structured, ForkJoinShape) {
  const TaskGraph g = fork_join_dag(3, 2);
  // 1 source + 2 stages * (3 + 1 join).
  EXPECT_EQ(g.num_tasks(), 1u + 2u * 4u);
  EXPECT_TRUE(is_acyclic(g));
  EXPECT_EQ(num_sources(g), 1u);
  EXPECT_EQ(num_sinks(g), 1u);
  EXPECT_EQ(widest_level(g), 3u);
}

TEST(Structured, OutTreeCounts) {
  const TaskGraph g = out_tree_dag(3, 2);  // 1 + 2 + 4
  EXPECT_EQ(g.num_tasks(), 7u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(num_sources(g), 1u);
  EXPECT_EQ(num_sinks(g), 4u);
}

TEST(Structured, InTreeIsMirror) {
  const TaskGraph g = in_tree_dag(3, 2);
  EXPECT_EQ(g.num_tasks(), 7u);
  EXPECT_EQ(num_sources(g), 4u);
  EXPECT_EQ(num_sinks(g), 1u);
  EXPECT_TRUE(is_acyclic(g));
}

TEST(Structured, GaussianEliminationCounts) {
  // (n^2 + n - 2)/2 tasks.
  for (std::size_t n : {2u, 3u, 5u, 8u}) {
    const TaskGraph g = gaussian_elimination_dag(n);
    EXPECT_EQ(g.num_tasks(), (n * n + n - 2) / 2) << "n=" << n;
    EXPECT_TRUE(is_acyclic(g));
    EXPECT_EQ(num_sources(g), 1u);  // first pivot
  }
}

TEST(Structured, GaussianEliminationDepth) {
  // Pivot chain forces 2*(n-1) - 1 levels.
  const TaskGraph g = gaussian_elimination_dag(4);
  EXPECT_EQ(num_levels(g), 6);
}

TEST(Structured, FftShape) {
  const TaskGraph g = fft_dag(8);
  // 8 inputs + 3 butterfly layers of 8.
  EXPECT_EQ(g.num_tasks(), 8u * 4u);
  EXPECT_TRUE(is_acyclic(g));
  EXPECT_EQ(num_levels(g), 4);
  // Every butterfly task has exactly two inputs.
  for (TaskId t = 8; t < g.num_tasks(); ++t) EXPECT_EQ(g.in_degree(t), 2u);
}

TEST(Structured, FftRejectsNonPowerOfTwo) {
  EXPECT_THROW(fft_dag(6), Error);
  EXPECT_THROW(fft_dag(1), Error);
}

TEST(Structured, DiamondGrid) {
  const TaskGraph g = diamond_dag(3, 4);
  EXPECT_EQ(g.num_tasks(), 12u);
  EXPECT_TRUE(is_acyclic(g));
  EXPECT_EQ(num_sources(g), 1u);  // (0,0)
  EXPECT_EQ(num_sinks(g), 1u);    // (3,2)
  EXPECT_EQ(num_levels(g), 3 + 4 - 1);
}

TEST(Structured, LaplaceExpandContract) {
  const TaskGraph g = laplace_dag(3);
  // Rows: 1, 2, 3, 2, 1 = 9 tasks.
  EXPECT_EQ(g.num_tasks(), 9u);
  EXPECT_TRUE(is_acyclic(g));
  EXPECT_EQ(num_sources(g), 1u);
  EXPECT_EQ(num_sinks(g), 1u);
  EXPECT_EQ(widest_level(g), 3u);
}

TEST(Structured, InvalidArgumentsThrow) {
  EXPECT_THROW(chain_dag(0), Error);
  EXPECT_THROW(fork_join_dag(0, 1), Error);
  EXPECT_THROW(out_tree_dag(1, 0), Error);
  EXPECT_THROW(gaussian_elimination_dag(1), Error);
  EXPECT_THROW(diamond_dag(0, 2), Error);
  EXPECT_THROW(laplace_dag(0), Error);
}

}  // namespace
}  // namespace sehc
