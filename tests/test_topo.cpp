#include "dag/topo.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/rng.h"
#include "workload/random_dag.h"

namespace sehc {
namespace {

TaskGraph diamond() {
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

/// Kahn's algorithm by linear scan, O(k^2): the lowest-id unplaced task
/// whose predecessors are all placed goes next.
std::vector<TaskId> min_scan_order(const TaskGraph& g) {
  const std::size_t k = g.num_tasks();
  std::vector<std::size_t> indegree(k);
  for (TaskId t = 0; t < k; ++t) indegree[t] = g.in_degree(t);
  std::vector<bool> placed(k, false);
  std::vector<TaskId> order;
  while (order.size() < k) {
    TaskId next = 0;
    while (next < k && (placed[next] || indegree[next] != 0)) ++next;
    if (next == k) break;  // cycle
    placed[next] = true;
    order.push_back(next);
    for (TaskId succ : g.succs(next)) --indegree[succ];
  }
  return order;
}

TEST(Topo, LowestIdOrderMatchesMinScanReference) {
  Rng rng(3);
  for (const double p : {0.0, 0.02, 0.1, 0.4}) {
    for (const std::size_t k : {1u, 2u, 17u, 64u, 150u}) {
      // Relabel a random forward DAG so its edges run both up and down in
      // id; p = 0 gives graphs with no edges at all.
      const TaskGraph forward = random_ordered_dag(k, p, rng);
      std::vector<TaskId> label(k);
      std::iota(label.begin(), label.end(), TaskId{0});
      rng.shuffle(label);
      TaskGraph g(k);
      for (const DagEdge& e : forward.edges()) {
        g.add_edge(label[e.src], label[e.dst]);
      }
      const auto order = topological_order(g);
      ASSERT_TRUE(order.has_value());
      EXPECT_EQ(*order, min_scan_order(g)) << "k=" << k << " p=" << p;
    }
  }
}

TEST(Topo, OrderRespectsEdges) {
  const TaskGraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(is_topological_order(g, *order));
}

TEST(Topo, DeterministicTieBreakIsLowestId) {
  const TaskGraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  // 0 first, then 1 before 2 (both ready, lowest id first), then 3.
  EXPECT_EQ(*order, (std::vector<TaskId>{0, 1, 2, 3}));
}

TEST(Topo, SingleTask) {
  TaskGraph g(1);
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 1u);
}

TEST(Topo, IsAcyclicOnDag) { EXPECT_TRUE(is_acyclic(diamond())); }

TEST(Topo, RandomOrderIsValidAndVaries) {
  Rng rng(1);
  TaskGraph g = random_ordered_dag(30, 0.1, rng);
  Rng r1(7), r2(8);
  const auto o1 = random_topological_order(g, r1);
  const auto o2 = random_topological_order(g, r2);
  ASSERT_TRUE(o1.has_value());
  ASSERT_TRUE(o2.has_value());
  EXPECT_TRUE(is_topological_order(g, *o1));
  EXPECT_TRUE(is_topological_order(g, *o2));
  EXPECT_NE(*o1, *o2);  // sparse 30-task DAG: different seeds should differ
}

TEST(Topo, IsTopologicalOrderRejectsWrongLength) {
  const TaskGraph g = diamond();
  std::vector<TaskId> short_order{0, 1, 2};
  EXPECT_FALSE(is_topological_order(g, short_order));
}

TEST(Topo, IsTopologicalOrderRejectsDuplicates) {
  const TaskGraph g = diamond();
  std::vector<TaskId> dup{0, 1, 1, 3};
  EXPECT_FALSE(is_topological_order(g, dup));
}

TEST(Topo, IsTopologicalOrderRejectsEdgeViolation) {
  const TaskGraph g = diamond();
  std::vector<TaskId> bad{3, 1, 2, 0};
  EXPECT_FALSE(is_topological_order(g, bad));
}

TEST(Topo, IsTopologicalOrderRejectsOutOfRangeIds) {
  const TaskGraph g = diamond();
  std::vector<TaskId> bad{0, 1, 2, 9};
  EXPECT_FALSE(is_topological_order(g, bad));
}

}  // namespace
}  // namespace sehc
