#include "hc/workload.h"

#include <algorithm>
#include <numeric>

#include "dag/topo.h"

namespace sehc {

Workload::Workload(TaskGraph graph, MachineSet machines, Matrix<double> exec,
                   Matrix<double> transfer)
    : Workload(std::move(graph), {}, std::move(machines), std::move(exec),
               std::move(transfer)) {}

Workload::Workload(TaskGraph graph, std::vector<TaskId> topo_order,
                   MachineSet machines, Matrix<double> exec,
                   Matrix<double> transfer)
    : graph_(std::move(graph)),
      machines_(std::move(machines)),
      exec_(std::move(exec)),
      transfer_(std::move(transfer)),
      topo_order_(std::move(topo_order)) {
  SEHC_CHECK(machines_.size() > 0, "Workload: need at least one machine");
  SEHC_CHECK(graph_.num_tasks() > 0, "Workload: need at least one task");
  SEHC_CHECK(exec_.rows() == machines_.size() &&
                 exec_.cols() == graph_.num_tasks(),
             "Workload: E must be (#machines x #tasks)");
  const std::size_t expected_rows = machines_.num_pairs();
  SEHC_CHECK(transfer_.rows() == expected_rows &&
                 transfer_.cols() == graph_.num_edges(),
             "Workload: Tr must be (l(l-1)/2 x #data items)");
  for (double v : exec_.flat())
    SEHC_CHECK(v >= 0.0, "Workload: negative execution time");
  for (double v : transfer_.flat())
    SEHC_CHECK(v >= 0.0, "Workload: negative transfer time");
  if (topo_order_.empty()) {
    auto order = topological_order(graph_);
    SEHC_CHECK(order.has_value(), "Workload: task graph has a cycle");
    topo_order_ = std::move(*order);
  }
  SEHC_ASSERT_MSG(topo_order_.size() == graph_.num_tasks(),
                  "Workload: topological order of another graph");
}

std::vector<MachineId> Workload::machines_by_speed(TaskId t) const {
  std::vector<MachineId> order(machines_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](MachineId a, MachineId b) {
    return exec_(a, t) < exec_(b, t);
  });
  return order;
}

}  // namespace sehc
