#include "sched/contention.h"

#include <algorithm>
#include <vector>

namespace sehc {

double contention_makespan(const Workload& w, const SolutionString& s) {
  SEHC_CHECK(s.size() == w.num_tasks(),
             "contention_makespan: string size mismatch");
  const TaskGraph& g = w.graph();
  const std::size_t num_machines = w.num_machines();

  std::vector<double> finish(w.num_tasks(), 0.0);
  std::vector<double> machine_avail(num_machines, 0.0);
  std::vector<double> link_avail(w.machines().num_pairs(), 0.0);
  double makespan = 0.0;

  for (const Segment& seg : s.segments()) {
    const TaskId t = seg.task;
    const MachineId m = seg.machine;
    double ready = 0.0;
    // Transfers serialize per link in (consumer position, data item) order,
    // which is exactly the iteration order here.
    for (DataId d : g.in_edges(t)) {
      const DagEdge& e = g.edge(d);
      const MachineId pm = s.machine_of(e.src);
      if (pm == m) {
        ready = std::max(ready, finish[e.src]);
        continue;
      }
      double& link = link_avail[pair_index(num_machines, pm, m)];
      link = std::max(finish[e.src], link) + w.transfer(pm, m, d);
      ready = std::max(ready, link);
    }
    finish[t] = std::max(ready, machine_avail[m]) + w.exec(m, t);
    machine_avail[m] = finish[t];
    makespan = std::max(makespan, finish[t]);
  }
  return makespan;
}

}  // namespace sehc
