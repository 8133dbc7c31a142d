// The complete problem instance (paper §2): an application DAG, a machine
// suite, the execution-time matrix E (l x k) and the transfer-time matrix
// Tr (l*(l-1)/2 x p, one row per unordered machine pair, one column per data
// item / DAG edge).
//
// Workload is the single value handed to every scheduler in the library.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/matrix.h"
#include "dag/task_graph.h"
#include "hc/machine.h"

namespace sehc {

class Workload {
 public:
  Workload() = default;

  /// Assembles and validates an instance. Throws if matrix shapes do not
  /// match the graph / machine counts, if any execution or transfer time is
  /// negative, or if the graph is cyclic.
  Workload(TaskGraph graph, MachineSet machines, Matrix<double> exec,
           Matrix<double> transfer);

  /// As above, with the graph's topological_order() already computed
  /// (read_workload hands over the one read_dag's acyclicity check made),
  /// so the graph is not sorted twice; an empty `topo_order` is computed
  /// here.
  Workload(TaskGraph graph, std::vector<TaskId> topo_order,
           MachineSet machines, Matrix<double> exec, Matrix<double> transfer);

  const TaskGraph& graph() const { return graph_; }
  const MachineSet& machines() const { return machines_; }

  std::size_t num_tasks() const { return graph_.num_tasks(); }
  std::size_t num_machines() const { return machines_.size(); }
  std::size_t num_items() const { return graph_.num_edges(); }

  /// Execution time of task `t` on machine `m` (E[m][t]).
  double exec(MachineId m, TaskId t) const { return exec_(m, t); }

  /// Transfer time of data item `d` between machines `a` and `b`; zero when
  /// a == b (machine-local communication is free, as in the paper's model).
  double transfer(MachineId a, MachineId b, DataId d) const {
    if (a == b) return 0.0;
    return transfer_(pair_index(machines_.size(), a, b), d);
  }

  /// Raw matrices (tests, serialization, generators).
  const Matrix<double>& exec_matrix() const { return exec_; }
  const Matrix<double>& transfer_matrix() const { return transfer_; }

  /// Fastest machine for task `t` (ties -> lowest machine id) and its time.
  MachineId best_machine(TaskId t) const { return static_cast<MachineId>(exec_.col_argmin(t)); }
  double best_exec(TaskId t) const { return exec_.col_min(t); }

  /// Machines sorted ascending by execution time of `t` (ties by id).
  /// This ordering defines the paper's Y-parameter candidate sets.
  std::vector<MachineId> machines_by_speed(TaskId t) const;

  /// The graph's deterministic topological order (topological_order():
  /// lowest id first among ready tasks), kept from the acyclicity check.
  std::span<const TaskId> topo_order() const { return topo_order_; }

 private:
  TaskGraph graph_;
  MachineSet machines_;
  Matrix<double> exec_;      // l x k
  Matrix<double> transfer_;  // l(l-1)/2 x p
  std::vector<TaskId> topo_order_;
};

}  // namespace sehc
