#include "sched/validate.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace sehc {

namespace {
// Tolerance for floating-point accumulated times.
constexpr double kEps = 1e-6;

std::string task_label(const Workload& w, TaskId t) {
  return w.graph().name(t) + " (s" + std::to_string(t) + ")";
}
}  // namespace

std::vector<std::string> validate_schedule(const Workload& w,
                                           const Schedule& s) {
  std::vector<std::string> violations;
  auto complain = [&violations](const std::string& msg) {
    violations.push_back(msg);
  };

  const std::size_t k = w.num_tasks();
  if (s.assignment.size() != k || s.start.size() != k || s.finish.size() != k) {
    complain("schedule arrays do not match task count");
    return violations;
  }

  double max_finish = 0.0;
  for (TaskId t = 0; t < k; ++t) {
    if (s.assignment[t] >= w.num_machines()) {
      complain(task_label(w, t) + ": machine id out of range");
      continue;
    }
    if (s.start[t] < -kEps)
      complain(task_label(w, t) + ": negative start time");
    const double expected = w.exec(s.assignment[t], t);
    if (std::abs((s.finish[t] - s.start[t]) - expected) > kEps)
      complain(task_label(w, t) + ": duration does not match E[m][t]");
    max_finish = std::max(max_finish, s.finish[t]);
  }
  if (std::abs(max_finish - s.makespan) > kEps)
    complain("makespan does not equal the maximum finish time");

  // Precedence + communication.
  for (const DagEdge& e : w.graph().edges()) {
    const double comm =
        w.transfer(s.assignment[e.src], s.assignment[e.dst], e.item);
    if (s.start[e.dst] + kEps < s.finish[e.src] + comm) {
      std::ostringstream os;
      os << task_label(w, e.dst) << " starts at " << s.start[e.dst]
         << " before data d" << e.item << " from " << task_label(w, e.src)
         << " arrives at " << s.finish[e.src] + comm;
      complain(os.str());
    }
  }

  // Machine exclusivity: no two tasks on one machine overlap in time.
  for (const auto& [machine, tasks] :
       [&] {
         std::vector<std::pair<MachineId, std::vector<TaskId>>> out;
         auto seqs = s.machine_sequences(w.num_machines());
         for (MachineId m = 0; m < seqs.size(); ++m)
           out.emplace_back(m, std::move(seqs[m]));
         return out;
       }()) {
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const TaskId prev = tasks[i - 1];
      const TaskId cur = tasks[i];
      if (s.start[cur] + kEps < s.finish[prev]) {
        std::ostringstream os;
        os << task_label(w, cur) << " overlaps " << task_label(w, prev)
           << " on m" << machine;
        complain(os.str());
      }
    }
  }
  return violations;
}

}  // namespace sehc
