#include "heuristics/dls.h"

#include <algorithm>
#include <limits>
#include <span>

namespace sehc {

std::vector<double> dls_static_levels(const Workload& w) {
  const TaskGraph& g = w.graph();
  const std::span<const TaskId> order = w.topo_order();

  std::vector<double> mean_exec(w.num_tasks(), 0.0);
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    double sum = 0.0;
    for (MachineId m = 0; m < w.num_machines(); ++m) sum += w.exec(m, t);
    mean_exec[t] = sum / static_cast<double>(w.num_machines());
  }

  std::vector<double> sl(w.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double tail = 0.0;
    for (TaskId succ : g.succs(t)) {
      tail = std::max(tail, sl[succ]);
    }
    sl[t] = mean_exec[t] + tail;
  }
  return sl;
}

Schedule dls_schedule(const Workload& w) {
  const TaskGraph& g = w.graph();
  const std::size_t k = w.num_tasks();
  const auto sl = dls_static_levels(w);

  std::vector<double> mean_exec(k, 0.0);
  for (TaskId t = 0; t < k; ++t) {
    double sum = 0.0;
    for (MachineId m = 0; m < w.num_machines(); ++m) sum += w.exec(m, t);
    mean_exec[t] = sum / static_cast<double>(w.num_machines());
  }

  Schedule s;
  s.assignment.assign(k, 0);
  s.start.assign(k, 0.0);
  s.finish.assign(k, 0.0);

  std::vector<double> machine_avail(w.num_machines(), 0.0);
  std::vector<std::size_t> pending(k);
  std::vector<bool> scheduled(k, false);
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < k; ++t) {
    pending[t] = g.in_degree(t);
    if (pending[t] == 0) ready.push_back(t);
  }

  for (std::size_t placed = 0; placed < k; ++placed) {
    SEHC_CHECK(!ready.empty(), "dls_schedule: cyclic graph");
    double best_dl = -std::numeric_limits<double>::infinity();
    std::size_t best_ready_idx = 0;
    MachineId best_machine = 0;
    double best_start = 0.0;

    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready[i];
      for (MachineId m = 0; m < w.num_machines(); ++m) {
        double data_ready = 0.0;
        for (DataId d : g.in_edges(t)) {
          const DagEdge& e = g.edge(d);
          data_ready = std::max(
              data_ready, s.finish[e.src] + w.transfer(s.assignment[e.src], m, d));
        }
        const double start = std::max(data_ready, machine_avail[m]);
        const double dl = sl[t] - start + (mean_exec[t] - w.exec(m, t));
        if (dl > best_dl) {
          best_dl = dl;
          best_ready_idx = i;
          best_machine = m;
          best_start = start;
        }
      }
    }

    const TaskId t = ready[best_ready_idx];
    ready[best_ready_idx] = ready.back();
    ready.pop_back();
    scheduled[t] = true;
    s.assignment[t] = best_machine;
    s.start[t] = best_start;
    s.finish[t] = best_start + w.exec(best_machine, t);
    machine_avail[best_machine] = s.finish[t];
    s.makespan = std::max(s.makespan, s.finish[t]);

    for (TaskId succ : g.succs(t)) {
      if (--pending[succ] == 0) ready.push_back(succ);
    }
  }
  return s;
}

}  // namespace sehc
