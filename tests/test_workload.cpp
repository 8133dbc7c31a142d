#include "hc/workload.h"

#include <gtest/gtest.h>

#include <string>

#include "workload/generator.h"

namespace sehc {
namespace {

Workload tiny() {
  TaskGraph g(2);
  g.add_edge(0, 1);
  Matrix<double> exec(2, 2);
  exec(0, 0) = 1.0; exec(0, 1) = 2.0;
  exec(1, 0) = 3.0; exec(1, 1) = 0.5;
  Matrix<double> tr(1, 1, 4.0);
  return Workload(std::move(g), MachineSet(2), std::move(exec), std::move(tr));
}

TEST(Workload, BasicAccessors) {
  const Workload w = tiny();
  EXPECT_EQ(w.num_tasks(), 2u);
  EXPECT_EQ(w.num_machines(), 2u);
  EXPECT_EQ(w.num_items(), 1u);
  EXPECT_DOUBLE_EQ(w.exec(1, 0), 3.0);
}

TEST(Workload, TransferSymmetricAndZeroLocal) {
  const Workload w = tiny();
  EXPECT_DOUBLE_EQ(w.transfer(0, 1, 0), 4.0);
  EXPECT_DOUBLE_EQ(w.transfer(1, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(w.transfer(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(w.transfer(1, 1, 0), 0.0);
}

TEST(Workload, BestMachine) {
  const Workload w = tiny();
  EXPECT_EQ(w.best_machine(0), 0u);
  EXPECT_EQ(w.best_machine(1), 1u);
  EXPECT_DOUBLE_EQ(w.best_exec(1), 0.5);
}

TEST(Workload, MachinesBySpeed) {
  const Workload w = tiny();
  EXPECT_EQ(w.machines_by_speed(0), (std::vector<MachineId>{0, 1}));
  EXPECT_EQ(w.machines_by_speed(1), (std::vector<MachineId>{1, 0}));
}

TEST(Workload, MachinesBySpeedStableOnTies) {
  TaskGraph g(1);
  Matrix<double> exec(3, 1, 5.0);  // all equal
  Matrix<double> tr(3, 0);
  Workload w(std::move(g), MachineSet(3), std::move(exec), std::move(tr));
  EXPECT_EQ(w.machines_by_speed(0), (std::vector<MachineId>{0, 1, 2}));
}

TEST(Workload, RejectsShapeMismatch) {
  TaskGraph g(2);
  g.add_edge(0, 1);
  Matrix<double> wrong_exec(1, 2, 1.0);  // needs 2 rows
  Matrix<double> tr(1, 1, 0.0);
  EXPECT_THROW(Workload(TaskGraph(g), MachineSet(2), wrong_exec, tr), Error);

  Matrix<double> exec(2, 2, 1.0);
  Matrix<double> wrong_tr(1, 3, 0.0);  // needs 1 item column
  EXPECT_THROW(Workload(TaskGraph(g), MachineSet(2), exec, wrong_tr), Error);
}

TEST(Workload, RejectsNegativeTimes) {
  TaskGraph g(1);
  Matrix<double> exec(1, 1, -1.0);
  Matrix<double> tr(0, 0);
  EXPECT_THROW(Workload(std::move(g), MachineSet(1), std::move(exec),
                        std::move(tr)),
               Error);
}

TEST(Workload, RejectsCyclicGraph) {
  TaskGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  Matrix<double> exec(1, 2, 1.0);
  Matrix<double> tr(0, 2, 0.0);
  try {
    Workload(std::move(g), MachineSet(1), std::move(exec), std::move(tr));
    ADD_FAILURE() << "a cyclic workload was built";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("Workload: task graph has a cycle"),
              std::string::npos)
        << e.what();
  }
}

TEST(Workload, RejectsEmptyProblem) {
  Matrix<double> exec(1, 0);
  Matrix<double> tr(0, 0);
  EXPECT_THROW(
      Workload(TaskGraph(), MachineSet(1), std::move(exec), std::move(tr)),
      Error);
}

TEST(Figure1Workload, ShapeMatchesPaper) {
  const Workload w = figure1_workload();
  EXPECT_EQ(w.num_tasks(), 7u);   // 7 subtasks
  EXPECT_EQ(w.num_items(), 6u);   // 6 data items
  EXPECT_EQ(w.num_machines(), 2u);
  EXPECT_EQ(w.exec_matrix().rows(), 2u);  // 2x7 E matrix
  EXPECT_EQ(w.exec_matrix().cols(), 7u);
  EXPECT_EQ(w.transfer_matrix().rows(), 1u);  // 1x6 Tr matrix
  EXPECT_EQ(w.transfer_matrix().cols(), 6u);
}

TEST(Figure1Workload, S4PredecessorsAreS0AndS1) {
  // Matches the paper's worked example for O_4.
  const Workload w = figure1_workload();
  const auto preds = w.graph().preds(4);
  EXPECT_EQ(std::vector<TaskId>(preds.begin(), preds.end()),
            (std::vector<TaskId>{0, 1}));
}

}  // namespace
}  // namespace sehc
