#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "dag/dot.h"
#include "dag/serialize.h"
#include "dag/topo.h"
#include "workload/random_dag.h"
#include "workload/structured.h"

namespace sehc {
namespace {

TEST(DagIo, RoundTripPreservesStructure) {
  TaskGraph g(4);
  g.set_name(2, "special");
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const TaskGraph back = dag_from_string(dag_to_string(g));
  EXPECT_EQ(g, back);
  EXPECT_EQ(back.name(2), "special");
}

TEST(DagIo, RoundTripRandomDags) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    TaskGraph g = random_ordered_dag(25, 0.15, rng);
    EXPECT_EQ(g, dag_from_string(dag_to_string(g)));
  }
}

TEST(DagIo, EdgeOrderPreservedForDataItems) {
  TaskGraph g(3);
  g.add_edge(1, 2);  // d0
  g.add_edge(0, 2);  // d1
  const TaskGraph back = dag_from_string(dag_to_string(g));
  EXPECT_EQ(back.edge(0).src, 1u);
  EXPECT_EQ(back.edge(1).src, 0u);
}

TEST(DagIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "sehc-dag v1\n"
      "tasks 2\n"
      "\n"
      "# a comment\n"
      "edge 0 1\n";
  const TaskGraph g = dag_from_string(text);
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(DagIo, MissingHeaderThrows) {
  EXPECT_THROW(dag_from_string("tasks 2\n"), Error);
}

TEST(DagIo, MissingTasksThrows) {
  EXPECT_THROW(dag_from_string("sehc-dag v1\nedge 0 1\n"), Error);
}

TEST(DagIo, OutOfRangeEdgeThrows) {
  EXPECT_THROW(dag_from_string("sehc-dag v1\ntasks 2\nedge 0 5\n"), Error);
}

TEST(DagIo, CycleThrows) {
  EXPECT_THROW(
      dag_from_string("sehc-dag v1\ntasks 2\nedge 0 1\nedge 1 0\n"), Error);
  std::vector<TaskId> order{7};
  try {
    dag_from_string("sehc-dag v1\ntasks 3\nedge 0 1\nedge 1 2\nedge 2 1\n",
                    &order);
    ADD_FAILURE() << "a cycle was read";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("read_dag: graph has a cycle"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(order, std::vector<TaskId>{7});  // untouched on failure
}

TEST(DagIo, HandsOverTheTopologicalOrderOfItsAcyclicityCheck) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    const TaskGraph g = random_ordered_dag(30, 0.2, rng);
    std::vector<TaskId> order;
    const TaskGraph back = dag_from_string(dag_to_string(g), &order);
    EXPECT_EQ(order, *topological_order(back));
  }
}

TEST(DagIo, UnknownKeywordThrows) {
  EXPECT_THROW(dag_from_string("sehc-dag v1\ntasks 1\nbogus 1\n"), Error);
}

TEST(Dot, EmitsNodesAndEdges) {
  TaskGraph g = chain_dag(3);
  std::ostringstream os;
  write_dot(os, g);
  const std::string out = os.str();
  EXPECT_NE(out.find("digraph dag {"), std::string::npos);
  EXPECT_NE(out.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(out.find("label=\"d0\""), std::string::npos);
}

TEST(Dot, AssignmentColorsNodes) {
  TaskGraph g = chain_dag(2);
  std::vector<MachineId> assignment{0, 1};
  std::ostringstream os;
  write_dot(os, g, assignment);
  EXPECT_NE(os.str().find("@m1"), std::string::npos);
}

TEST(Dot, AssignmentSizeMismatchThrows) {
  TaskGraph g = chain_dag(2);
  std::vector<MachineId> bad{0};
  std::ostringstream os;
  EXPECT_THROW(write_dot(os, g, bad), Error);
}

}  // namespace
}  // namespace sehc
