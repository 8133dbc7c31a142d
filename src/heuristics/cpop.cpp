#include "heuristics/cpop.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "heuristics/heft.h"
#include "heuristics/list_schedule.h"

namespace sehc {

Schedule cpop_schedule(const Workload& w) {
  const TaskGraph& g = w.graph();
  const auto rank_u = upward_ranks(w, /*with_transfers=*/true);
  const auto rank_d = heft_downward_ranks(w);

  std::vector<double> priority(w.num_tasks());
  double cp_priority = 0.0;
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    priority[t] = rank_u[t] + rank_d[t];
    cp_priority = std::max(cp_priority, priority[t]);
  }

  // Critical-path set: priority equal to the maximum (relative tolerance,
  // so the set does not depend on the unit of time).
  const double tol = 1e-9 * cp_priority;
  std::vector<bool> on_cp(w.num_tasks(), false);
  for (TaskId t = 0; t < w.num_tasks(); ++t)
    on_cp[t] = priority[t] >= cp_priority - tol;

  // Pin the critical path to the machine with minimal total CP time.
  MachineId cp_machine = 0;
  double best_total = std::numeric_limits<double>::infinity();
  for (MachineId m = 0; m < w.num_machines(); ++m) {
    double total = 0.0;
    for (TaskId t = 0; t < w.num_tasks(); ++t)
      if (on_cp[t]) total += w.exec(m, t);
    if (total < best_total) {
      best_total = total;
      cp_machine = m;
    }
  }

  // Ready-list scheduling by descending priority.
  auto cmp = [&](TaskId a, TaskId b) {
    if (priority[a] != priority[b]) return priority[a] < priority[b];
    return a > b;
  };
  std::priority_queue<TaskId, std::vector<TaskId>, decltype(cmp)> ready(cmp);
  std::vector<std::size_t> pending(w.num_tasks());
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    pending[t] = g.in_degree(t);
    if (pending[t] == 0) ready.push(t);
  }

  ListSchedule ls(w, /*insertion=*/true);
  std::size_t scheduled = 0;
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    ++scheduled;
    if (on_cp[t]) {
      ls.place(t, cp_machine, ls.earliest_start(t, cp_machine));
    } else {
      const auto p = ls.earliest_finish(t);
      ls.place(t, p.machine, p.start);
    }
    for (TaskId succ : g.succs(t)) {
      if (--pending[succ] == 0) ready.push(succ);
    }
  }
  SEHC_CHECK(scheduled == w.num_tasks(), "cpop_schedule: cyclic graph");
  return ls.release();
}

}  // namespace sehc
