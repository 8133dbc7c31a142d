#include "heuristics/heft.h"

#include <algorithm>

#include "heuristics/list_schedule.h"

namespace sehc {

std::vector<double> heft_downward_ranks(const Workload& w) {
  const TaskGraph& g = w.graph();
  const auto wbar = mean_exec_times(w);
  const auto cbar = mean_transfer_times(w);

  std::vector<double> rank(w.num_tasks(), 0.0);
  for (TaskId t : w.topo_order()) {
    double head = 0.0;
    for (DataId d : g.in_edges(t)) {
      const DagEdge& e = g.edge(d);
      head = std::max(head, rank[e.src] + wbar[e.src] + cbar[d]);
    }
    rank[t] = head;
  }
  return rank;
}

Schedule heft_schedule(const Workload& w) {
  const auto rank = upward_ranks(w, /*with_transfers=*/true);
  // A zero-cost predecessor ties its successor's rank; breaking ties in
  // topological order still places it first.
  std::vector<TaskId> order(w.topo_order().begin(), w.topo_order().end());
  std::stable_sort(order.begin(), order.end(),
                   [&](TaskId a, TaskId b) { return rank[a] > rank[b]; });

  ListSchedule ls(w, /*insertion=*/true);
  for (TaskId t : order) {
    const auto p = ls.earliest_finish(t);
    ls.place(t, p.machine, p.start);
  }
  return ls.release();
}

}  // namespace sehc
