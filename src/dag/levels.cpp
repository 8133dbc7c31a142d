#include "dag/levels.h"

#include <algorithm>

#include "dag/topo.h"

namespace sehc {

std::vector<int> task_levels(const TaskGraph& g) {
  auto order = topological_order(g);
  SEHC_CHECK(order.has_value(), "task_levels: graph has a cycle");
  std::vector<int> level(g.num_tasks(), 0);
  for (TaskId t : *order) {
    for (TaskId succ : g.succs(t)) {
      level[succ] = std::max(level[succ], level[t] + 1);
    }
  }
  return level;
}

int num_levels(const TaskGraph& g) {
  if (g.num_tasks() == 0) return 0;
  const auto levels = task_levels(g);
  return 1 + *std::max_element(levels.begin(), levels.end());
}

std::vector<std::vector<TaskId>> tasks_by_level(const TaskGraph& g) {
  const auto levels = task_levels(g);
  std::vector<std::vector<TaskId>> groups;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    const auto level = static_cast<std::size_t>(levels[t]);
    if (level >= groups.size()) groups.resize(level + 1);
    groups[level].push_back(t);
  }
  return groups;
}

}  // namespace sehc
