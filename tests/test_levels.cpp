#include "dag/levels.h"

#include <gtest/gtest.h>

#include "dag/topo.h"
#include "workload/structured.h"

namespace sehc {
namespace {

TaskGraph two_path() {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3 plus shortcut 0 -> 3.
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  return g;
}

TEST(Levels, LongestPathSemantics) {
  const auto levels = task_levels(two_path());
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], 1);
  EXPECT_EQ(levels[2], 1);
  EXPECT_EQ(levels[3], 2);  // longest path 0->1->3, not shortcut 0->3
}

TEST(Levels, CycleThrows) {
  TaskGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // raw add_edge does not check acyclicity
  EXPECT_FALSE(is_acyclic(g));
  EXPECT_THROW(task_levels(g), Error);
}

TEST(Levels, NumLevelsOnChain) {
  EXPECT_EQ(num_levels(chain_dag(5)), 5);
}

TEST(Levels, TasksByLevelGroups) {
  const auto groups = tasks_by_level(two_path());
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<TaskId>{0}));
  EXPECT_EQ(groups[1], (std::vector<TaskId>{1, 2}));
  EXPECT_EQ(groups[2], (std::vector<TaskId>{3}));
}

TEST(Levels, IsolatedTasksAllLevelZero) {
  TaskGraph g(3);
  const auto levels = task_levels(g);
  for (int l : levels) EXPECT_EQ(l, 0);
  EXPECT_EQ(num_levels(g), 1);
}

}  // namespace
}  // namespace sehc
