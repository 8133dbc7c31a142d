#include "heuristics/heft.h"

#include <algorithm>
#include <numeric>
#include <span>

namespace sehc {

namespace {

/// Mean execution time of each task across machines.
std::vector<double> mean_exec(const Workload& w) {
  std::vector<double> out(w.num_tasks(), 0.0);
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    double sum = 0.0;
    for (MachineId m = 0; m < w.num_machines(); ++m) sum += w.exec(m, t);
    out[t] = sum / static_cast<double>(w.num_machines());
  }
  return out;
}

/// Mean transfer time of each data item across distinct machine pairs
/// (zero when the suite has a single machine).
std::vector<double> mean_transfer(const Workload& w) {
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

}  // namespace

std::vector<double> heft_upward_ranks(const Workload& w) {
  const TaskGraph& g = w.graph();
  const auto wbar = mean_exec(w);
  const auto cbar = mean_transfer(w);
  const std::span<const TaskId> order = w.topo_order();

  std::vector<double> rank(w.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double tail = 0.0;
    for (DataId d : g.out_edges(t)) {
      const DagEdge& e = g.edge(d);
      tail = std::max(tail, cbar[d] + rank[e.dst]);
    }
    rank[t] = wbar[t] + tail;
  }
  return rank;
}

std::vector<double> heft_downward_ranks(const Workload& w) {
  const TaskGraph& g = w.graph();
  const auto wbar = mean_exec(w);
  const auto cbar = mean_transfer(w);
  const std::span<const TaskId> order = w.topo_order();

  std::vector<double> rank(w.num_tasks(), 0.0);
  for (TaskId t : order) {
    double head = 0.0;
    for (DataId d : g.in_edges(t)) {
      const DagEdge& e = g.edge(d);
      head = std::max(head, rank[e.src] + wbar[e.src] + cbar[d]);
    }
    rank[t] = head;
  }
  return rank;
}

InsertionTimeline::InsertionTimeline(std::size_t num_machines)
    : slots_(num_machines) {}

double InsertionTimeline::earliest_start(MachineId m, double ready,
                                         double duration) const {
  SEHC_CHECK(m < slots_.size(), "InsertionTimeline: bad machine");
  const auto& machine = slots_[m];
  double candidate = ready;
  for (const Slot& slot : machine) {
    if (candidate + duration <= slot.start) {
      return candidate;  // fits in the gap before this slot
    }
    candidate = std::max(candidate, slot.finish);
  }
  return candidate;
}

void InsertionTimeline::place(MachineId m, double start, double duration) {
  SEHC_CHECK(m < slots_.size(), "InsertionTimeline: bad machine");
  auto& machine = slots_[m];
  const Slot slot{start, start + duration};
  machine.insert(std::upper_bound(machine.begin(), machine.end(), slot,
                                  [](const Slot& a, const Slot& b) {
                                    return a.start < b.start;
                                  }),
                 slot);
}

Schedule heft_schedule(const Workload& w) {
  const TaskGraph& g = w.graph();
  const auto rank = heft_upward_ranks(w);

  std::vector<TaskId> order(w.num_tasks());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return a < b;
  });

  Schedule s;
  s.assignment.assign(w.num_tasks(), 0);
  s.start.assign(w.num_tasks(), 0.0);
  s.finish.assign(w.num_tasks(), 0.0);
  InsertionTimeline timeline(w.num_machines());

  for (TaskId t : order) {
    double best_finish = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    MachineId best_machine = 0;
    for (MachineId m = 0; m < w.num_machines(); ++m) {
      double ready = 0.0;
      for (DataId d : g.in_edges(t)) {
        const DagEdge& e = g.edge(d);
        ready = std::max(ready,
                         s.finish[e.src] + w.transfer(s.assignment[e.src], m, d));
      }
      const double duration = w.exec(m, t);
      const double start = timeline.earliest_start(m, ready, duration);
      if (start + duration < best_finish) {
        best_finish = start + duration;
        best_start = start;
        best_machine = m;
      }
    }
    s.assignment[t] = best_machine;
    s.start[t] = best_start;
    s.finish[t] = best_finish;
    timeline.place(best_machine, best_start, best_finish - best_start);
    s.makespan = std::max(s.makespan, best_finish);
  }
  return s;
}

}  // namespace sehc
