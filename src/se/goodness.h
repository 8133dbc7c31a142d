// Goodness measure for SE (paper §4.3): g_i = O_i / C_i.
//
// O_i is the finish time of subtask s_i under the paper's function F: s_i
// and all of its predecessors are placed on their best-matching machines
// (minimum execution time), resource contention is ignored, and inter-task
// communication is charged whenever producer and consumer best machines
// differ. O_i depends only on the workload, so it is computed once before
// the SE loop starts.
//
// C_i is the finish time of s_i in the current solution, so g_i <= 1 in the
// common case; when contention-free best-machine placement is actually
// worse than the current location (possible: co-locating tasks can beat
// paying communication), the ratio is clamped into [0, 1].
#pragma once

#include <vector>

#include "hc/workload.h"
#include "sched/evaluator.h"

namespace sehc {

/// O_i for every task: contention-free finish times with every task on its
/// best-matching machine. O(k + e).
std::vector<double> optimal_costs(const Workload& w);

/// g_i = clamp(O_i / C_i, 0, 1) with C_i taken from `times.finish`, into a
/// caller-owned buffer (resized to fit) so the SE loop performs no
/// per-iteration allocation. Tasks with C_i <= 0 (zero-cost degenerate
/// tasks) get goodness 1.
void goodness_into(const std::vector<double>& optimal,
                   const ScheduleTimes& times, std::vector<double>& out);

}  // namespace sehc
