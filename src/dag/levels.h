// DAG level / depth computations.
//
// The paper's selection step orders selected subtasks "in ascending order
// according to their level in the DAG" (§4.4): level(t) = length (in edges)
// of the longest path from any source to t. We also provide the per-level
// groupings used by the levelized min-min / max-min baselines.
#pragma once

#include <vector>

#include "dag/task_graph.h"

namespace sehc {

/// level[t] = longest #edges from a source to t (sources get 0).
/// Requires an acyclic graph (throws otherwise).
std::vector<int> task_levels(const TaskGraph& g);

/// Number of distinct levels (= max level + 1; 0 for an empty graph).
int num_levels(const TaskGraph& g);

/// Groups task ids by level, ascending; tasks within a level are id-ordered.
std::vector<std::vector<TaskId>> tasks_by_level(const TaskGraph& g);

}  // namespace sehc
