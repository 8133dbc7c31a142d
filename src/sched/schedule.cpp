#include "sched/schedule.h"

#include <algorithm>
#include <numeric>

#include "sched/evaluator.h"

namespace sehc {

Schedule Schedule::from_solution(const Workload& w, const SolutionString& s) {
  const ScheduleTimes times = evaluate_schedule(w, s);
  Schedule out;
  out.assignment = s.assignment();
  out.start = times.start;
  out.finish = times.finish;
  out.makespan = times.makespan;
  return out;
}

std::vector<std::vector<TaskId>> Schedule::machine_sequences(
    std::size_t num_machines) const {
  std::vector<std::vector<TaskId>> seq(num_machines);
  for (TaskId t = 0; t < assignment.size(); ++t) {
    SEHC_CHECK(assignment[t] < num_machines,
               "Schedule::machine_sequences: machine out of range");
    seq[assignment[t]].push_back(t);
  }
  for (auto& tasks : seq) {
    std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
      if (start[a] != start[b]) return start[a] < start[b];
      return a < b;
    });
  }
  return seq;
}

SolutionString Schedule::to_solution(const Workload& w) const {
  std::vector<TaskId> order(w.topo_order().begin(), w.topo_order().end());
  std::stable_sort(order.begin(), order.end(),
                   [this](TaskId a, TaskId b) { return start[a] < start[b]; });
  return SolutionString(order, assignment);
}

SolutionString Schedule::to_solution() const {
  std::vector<TaskId> order(assignment.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (start[a] != start[b]) return start[a] < start[b];
    return a < b;
  });
  return SolutionString(order, assignment);
}

}  // namespace sehc
