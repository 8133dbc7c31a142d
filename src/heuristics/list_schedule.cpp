#include "heuristics/list_schedule.h"

#include <algorithm>

namespace sehc {

std::vector<double> mean_exec_times(const Workload& w) {
  std::vector<double> out(w.num_tasks(), 0.0);
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    double sum = 0.0;
    for (MachineId m = 0; m < w.num_machines(); ++m) sum += w.exec(m, t);
    out[t] = sum / static_cast<double>(w.num_machines());
  }
  return out;
}

std::vector<double> mean_transfer_times(const Workload& w) {
  std::vector<double> out(w.num_items(), 0.0);
  const auto& tr = w.transfer_matrix();
  if (tr.rows() == 0) return out;
  for (DataId d = 0; d < w.num_items(); ++d) {
    double sum = 0.0;
    for (std::size_t p = 0; p < tr.rows(); ++p) sum += tr(p, d);
    out[d] = sum / static_cast<double>(tr.rows());
  }
  return out;
}

std::vector<double> upward_ranks(const Workload& w, bool with_transfers) {
  const TaskGraph& g = w.graph();
  const auto wbar = mean_exec_times(w);
  const auto cbar = with_transfers ? mean_transfer_times(w)
                                   : std::vector<double>(w.num_items(), 0.0);
  const auto order = w.topo_order();

  std::vector<double> rank(w.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double tail = 0.0;
    for (DataId d : g.out_edges(t)) {
      tail = std::max(tail, cbar[d] + rank[g.edge(d).dst]);
    }
    rank[t] = wbar[t] + tail;
  }
  return rank;
}

ListSchedule::ListSchedule(const Workload& w, bool insertion)
    : w_(w), insertion_(insertion), slots_(w.num_machines()) {
  s_.assignment.assign(w.num_tasks(), 0);
  s_.start.assign(w.num_tasks(), 0.0);
  s_.finish.assign(w.num_tasks(), 0.0);
}

double ListSchedule::earliest_start(TaskId t, MachineId m) const {
  const TaskGraph& g = w_.graph();
  double ready = 0.0;
  for (DataId d : g.in_edges(t)) {
    const DagEdge& e = g.edge(d);
    ready = std::max(ready,
                     s_.finish[e.src] + w_.transfer(s_.assignment[e.src], m, d));
  }
  if (!insertion_) return std::max(ready, last_finish(m));
  const double duration = w_.exec(m, t);
  for (const Slot& slot : slots_[m]) {
    if (ready + duration <= slot.start) return ready;  // fits in this gap
    ready = std::max(ready, slot.finish);
  }
  return ready;
}

ListSchedule::Placement ListSchedule::earliest_finish(TaskId t) const {
  Placement best;
  for (MachineId m = 0; m < w_.num_machines(); ++m) {
    const double start = earliest_start(t, m);
    const double finish = start + w_.exec(m, t);
    if (m == 0 || finish < best.finish) best = {m, start, finish};
  }
  return best;
}

double ListSchedule::last_finish(MachineId m) const {
  return slots_[m].empty() ? 0.0 : slots_[m].back().finish;
}

void ListSchedule::place(TaskId t, MachineId m, double start) {
  const Slot slot{start, start + w_.exec(m, t)};
  s_.assignment[t] = m;
  s_.start[t] = slot.start;
  s_.finish[t] = slot.finish;
  s_.makespan = std::max(s_.makespan, slot.finish);
  auto& slots = slots_[m];
  slots.insert(std::upper_bound(slots.begin(), slots.end(), slot,
                                [](const Slot& a, const Slot& b) {
                                  return a.start < b.start;
                                }),
               slot);
}

}  // namespace sehc
