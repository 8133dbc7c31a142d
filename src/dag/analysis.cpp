#include "dag/analysis.h"

#include <algorithm>

#include "dag/topo.h"

namespace sehc {

double edge_density(const TaskGraph& g) {
  const double k = static_cast<double>(g.num_tasks());
  if (k < 2.0) return 0.0;
  return static_cast<double>(g.num_edges()) / (k * (k - 1.0) / 2.0);
}

double average_degree(const TaskGraph& g) {
  if (g.num_tasks() == 0) return 0.0;
  return static_cast<double>(g.num_edges()) /
         static_cast<double>(g.num_tasks());
}

double critical_path_length(const TaskGraph& g,
                            std::span<const double> node_cost,
                            std::span<const double> edge_cost) {
  if (g.num_tasks() == 0) return 0.0;
  SEHC_CHECK(node_cost.size() == g.num_tasks(),
             "critical_path_length: node_cost size mismatch");
  SEHC_CHECK(edge_cost.empty() || edge_cost.size() == g.num_edges(),
             "critical_path_length: edge_cost size mismatch");
  const auto order = topological_order(g);
  SEHC_CHECK(order.has_value(), "critical_path_length: graph has a cycle");
  // finish[t]: the longest path ending at t, t's own cost included.
  std::vector<double> finish(g.num_tasks(), 0.0);
  for (TaskId t : *order) {
    double start = 0.0;
    for (DataId d : g.in_edges(t)) {
      const double comm = edge_cost.empty() ? 0.0 : edge_cost[d];
      start = std::max(start, finish[g.edge(d).src] + comm);
    }
    finish[t] = start + node_cost[t];
  }
  return *std::max_element(finish.begin(), finish.end());
}

}  // namespace sehc
