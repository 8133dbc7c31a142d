#include "heuristics/dls.h"

#include <limits>

#include "heuristics/list_schedule.h"

namespace sehc {

Schedule dls_schedule(const Workload& w) {
  const TaskGraph& g = w.graph();
  const auto sl = upward_ranks(w, /*with_transfers=*/false);
  const auto mean_exec = mean_exec_times(w);

  std::vector<std::size_t> pending(w.num_tasks());
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    pending[t] = g.in_degree(t);
    if (pending[t] == 0) ready.push_back(t);
  }

  ListSchedule ls(w, /*insertion=*/false);
  for (std::size_t placed = 0; placed < w.num_tasks(); ++placed) {
    SEHC_CHECK(!ready.empty(), "dls_schedule: cyclic graph");
    double best_dl = -std::numeric_limits<double>::infinity();
    std::size_t best_ready_idx = 0;
    MachineId best_machine = 0;
    double best_start = 0.0;

    for (std::size_t i = 0; i < ready.size(); ++i) {
      const TaskId t = ready[i];
      for (MachineId m = 0; m < w.num_machines(); ++m) {
        const double start = ls.earliest_start(t, m);
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
    ls.place(t, best_machine, best_start);
    for (TaskId succ : g.succs(t)) {
      if (--pending[succ] == 0) ready.push_back(succ);
    }
  }
  return ls.release();
}

}  // namespace sehc
