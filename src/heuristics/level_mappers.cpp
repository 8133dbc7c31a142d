#include "heuristics/level_mappers.h"

#include "dag/levels.h"
#include "heuristics/list_schedule.h"

namespace sehc {

namespace {

/// Min-min (minimize_best = true) / Max-min (false): within each level,
/// repeatedly commit the task whose earliest finish is lowest (highest).
Schedule run_minmax(const Workload& w, bool minimize_best) {
  ListSchedule ls(w, /*insertion=*/false);
  for (auto& level : tasks_by_level(w.graph())) {
    while (!level.empty()) {
      std::size_t chosen = 0;
      auto best = ls.earliest_finish(level[0]);
      for (std::size_t i = 1; i < level.size(); ++i) {
        const auto p = ls.earliest_finish(level[i]);
        if (minimize_best ? p.finish < best.finish : p.finish > best.finish) {
          best = p;
          chosen = i;
        }
      }
      ls.place(level[chosen], best.machine, best.start);
      level.erase(level.begin() + static_cast<std::ptrdiff_t>(chosen));
    }
  }
  return ls.release();
}

}  // namespace

Schedule minmin_schedule(const Workload& w) { return run_minmax(w, true); }
Schedule maxmin_schedule(const Workload& w) { return run_minmax(w, false); }

Schedule mct_schedule(const Workload& w) {
  ListSchedule ls(w, /*insertion=*/false);
  for (const auto& level : tasks_by_level(w.graph())) {
    for (TaskId t : level) {
      const auto p = ls.earliest_finish(t);
      ls.place(t, p.machine, p.start);
    }
  }
  return ls.release();
}

Schedule olb_schedule(const Workload& w) {
  ListSchedule ls(w, /*insertion=*/false);
  for (const auto& level : tasks_by_level(w.graph())) {
    for (TaskId t : level) {
      MachineId m = 0;
      for (MachineId c = 1; c < w.num_machines(); ++c) {
        if (ls.last_finish(c) < ls.last_finish(m)) m = c;
      }
      ls.place(t, m, ls.earliest_start(t, m));
    }
  }
  return ls.release();
}

}  // namespace sehc
