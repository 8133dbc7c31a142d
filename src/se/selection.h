// SE selection step (paper §4.4).
//
// For every subtask s_i draw r ~ U[0,1]; s_i joins the selection set S iff
// r > g_i + B. Low-goodness (badly placed) tasks are therefore likely to be
// selected; high-goodness tasks keep a non-zero selection probability. The
// bias B shifts the whole threshold: negative B selects more (thorough
// search, used for small problems), positive B selects fewer (fast
// iterations for large problems).
//
// Selected tasks are returned sorted ascending by DAG level, the order in
// which allocation will re-place them.
#pragma once

#include <vector>

#include "core/rng.h"
#include "dag/task_graph.h"

namespace sehc {

/// Performs one selection round into a caller-owned buffer (cleared, then
/// filled) so the SE loop performs no per-iteration allocation. `levels` is
/// task_levels(graph), passed in because the engine precomputes it once.
void select_tasks_into(const std::vector<double>& goodness, double bias,
                       const std::vector<int>& levels, Rng& rng,
                       std::vector<TaskId>& out);

/// The paper's bias guidance (§4.4): negative for small DAGs (more thorough
/// search), positive for large DAGs (cheaper iterations).
double default_bias(std::size_t num_tasks);

}  // namespace sehc
