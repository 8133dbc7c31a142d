#include "se/goodness.h"

#include <algorithm>
#include <span>

namespace sehc {

std::vector<double> optimal_costs(const Workload& w) {
  const TaskGraph& g = w.graph();
  const std::span<const TaskId> order = w.topo_order();

  // Best-matching machine per task (paper: minimum execution time).
  std::vector<MachineId> best(w.num_tasks());
  for (TaskId t = 0; t < w.num_tasks(); ++t) best[t] = w.best_machine(t);

  std::vector<double> finish(w.num_tasks(), 0.0);
  for (TaskId t : order) {
    double ready = 0.0;
    for (DataId d : g.in_edges(t)) {
      const DagEdge& e = g.edge(d);
      ready = std::max(ready,
                       finish[e.src] + w.transfer(best[e.src], best[t], d));
    }
    finish[t] = ready + w.exec(best[t], t);
  }
  return finish;
}

void goodness_into(const std::vector<double>& optimal,
                   const ScheduleTimes& times, std::vector<double>& out) {
  SEHC_CHECK(optimal.size() == times.finish.size(),
             "goodness: size mismatch");
  out.resize(optimal.size());
  for (std::size_t i = 0; i < optimal.size(); ++i) {
    const double ci = times.finish[i];
    out[i] = ci <= 0.0 ? 1.0 : std::clamp(optimal[i] / ci, 0.0, 1.0);
  }
}

}  // namespace sehc
