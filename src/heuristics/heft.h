// HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu; ref [5]
// of the paper).
//
// Phase 1: upward ranks from mean execution and mean transfer costs.
// Phase 2: tasks in decreasing rank order, equal ranks in topological
// order; each task goes to the machine minimizing its earliest finish time,
// with insertion-based slot search (a task may fill an idle gap left
// earlier on the machine).
#pragma once

#include <vector>

#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

/// Downward rank: rank_d(t) = max over predecessors of
/// (rank_d(pred) + w(pred) + mean transfer). Used by CPOP.
std::vector<double> heft_downward_ranks(const Workload& w);

/// Runs HEFT and returns the (insertion-based) schedule.
Schedule heft_schedule(const Workload& w);

}  // namespace sehc
