#include "dag/analysis.h"

#include <gtest/gtest.h>

#include "workload/structured.h"

namespace sehc {
namespace {

TEST(Analysis, EdgeDensity) {
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  // 2 of 6 possible forward pairs.
  EXPECT_DOUBLE_EQ(edge_density(g), 2.0 / 6.0);
}

TEST(Analysis, EdgeDensityDegenerate) {
  EXPECT_DOUBLE_EQ(edge_density(TaskGraph(1)), 0.0);
}

TEST(Analysis, AverageDegree) {
  TaskGraph g = chain_dag(5);  // 4 edges / 5 tasks
  EXPECT_DOUBLE_EQ(average_degree(g), 0.8);
}

TEST(Analysis, CriticalPathNodeCostsOnly) {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 with heavy task 2.
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const std::vector<double> cost{1.0, 1.0, 10.0, 1.0};
  EXPECT_DOUBLE_EQ(critical_path_length(g, cost), 12.0);
}

TEST(Analysis, CriticalPathWithEdgeCosts) {
  TaskGraph g(3);
  const DataId d01 = g.add_edge(0, 1);
  const DataId d12 = g.add_edge(1, 2);
  std::vector<double> node{1.0, 1.0, 1.0};
  std::vector<double> edge(2, 0.0);
  edge[d01] = 5.0;
  edge[d12] = 2.0;
  EXPECT_DOUBLE_EQ(critical_path_length(g, node, edge), 10.0);
}

TEST(Analysis, CriticalPathSizeMismatchThrows) {
  TaskGraph g(2);
  std::vector<double> bad{1.0};
  EXPECT_THROW(critical_path_length(g, bad), Error);
}

}  // namespace
}  // namespace sehc
