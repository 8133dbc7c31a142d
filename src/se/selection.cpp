#include "se/selection.h"

#include <algorithm>

#include "core/error.h"

namespace sehc {

void select_tasks_into(const std::vector<double>& goodness, double bias,
                       const std::vector<int>& levels, Rng& rng,
                       std::vector<TaskId>& out) {
  SEHC_CHECK(goodness.size() == levels.size(),
             "select_tasks: goodness/levels size mismatch");
  out.clear();
  for (TaskId t = 0; t < goodness.size(); ++t) {
    if (rng.uniform() > goodness[t] + bias) out.push_back(t);
  }
  // Ascending by DAG level; stable so equal-level tasks keep id order.
  std::stable_sort(out.begin(), out.end(),
                   [&](TaskId a, TaskId b) { return levels[a] < levels[b]; });
}

double default_bias(std::size_t num_tasks) {
  // Paper §4.4: B in [-0.3, -0.1] for small problems, [0, 0.1] for large.
  if (num_tasks <= 30) return -0.2;
  if (num_tasks <= 60) return -0.1;
  return 0.05;
}

}  // namespace sehc
