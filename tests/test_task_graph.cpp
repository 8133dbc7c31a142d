#include "dag/task_graph.h"

#include <gtest/gtest.h>

#include "dag/builder.h"

namespace sehc {
namespace {

TEST(TaskGraph, BulkConstructionNamesTasks) {
  TaskGraph g(3);
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_EQ(g.name(0), "s0");
  EXPECT_EQ(g.name(2), "s2");
}

TEST(TaskGraph, AddTaskAssignsDenseIds) {
  TaskGraph g;
  EXPECT_EQ(g.add_task(), 0u);
  EXPECT_EQ(g.add_task("custom"), 1u);
  EXPECT_EQ(g.name(1), "custom");
}

TEST(TaskGraph, EdgeCarriesDataItemIdsInOrder) {
  TaskGraph g(3);
  EXPECT_EQ(g.add_edge(0, 1), 0u);
  EXPECT_EQ(g.add_edge(0, 2), 1u);
  EXPECT_EQ(g.edge(1).src, 0u);
  EXPECT_EQ(g.edge(1).dst, 2u);
  EXPECT_EQ(g.edge(1).item, 1u);
}

TEST(TaskGraph, RejectsSelfLoop) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_edge(1, 1), Error);
}

TEST(TaskGraph, RejectsDuplicateEdge) {
  TaskGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(0, 1), Error);
}

TEST(TaskGraph, RejectsUnknownEndpoints) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_edge(0, 5), Error);
  EXPECT_THROW(g.add_edge(5, 0), Error);
}

TEST(TaskGraph, AdjacencyAndDegrees) {
  TaskGraph g(4);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.out_edges(2).size(), 1u);
  const auto ids = [](std::span<const TaskId> v) {
    return std::vector<TaskId>(v.begin(), v.end());
  };
  EXPECT_EQ(ids(g.preds(2)), (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(ids(g.succs(2)), (std::vector<TaskId>{3}));
}

TEST(TaskGraph, HasEdgeBothDirectionsOfScan) {
  TaskGraph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(DagBuilder, BuildsByName) {
  TaskGraph g = DagBuilder()
                    .tasks({"a", "b", "c"})
                    .edge("a", "b")
                    .edge("b", "c")
                    .finish();
  EXPECT_EQ(g.num_tasks(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(DagBuilder, RejectsDuplicateName) {
  DagBuilder b;
  b.task("a");
  EXPECT_THROW(b.task("a"), Error);
}

TEST(DagBuilder, RejectsUnknownEdgeName) {
  DagBuilder b;
  b.task("a");
  EXPECT_THROW(b.edge("a", "nope"), Error);
}

TEST(DagBuilder, FinishRejectsCycle) {
  DagBuilder b;
  b.tasks({"a", "b"});
  b.edge("a", "b");
  b.edge(1u, 0u);
  EXPECT_THROW(b.finish(), Error);
}

TEST(DagBuilder, FinishResetsBuilder) {
  DagBuilder b;
  b.task("a");
  (void)b.finish();
  // A fresh graph can be built with the same names.
  EXPECT_NO_THROW(b.task("a"));
}

}  // namespace
}  // namespace sehc
