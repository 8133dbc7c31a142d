// CPOP — Critical Path On a Processor (Topcuoglu, Hariri, Wu; ref [5]).
//
// Priority of a task is rank_u + rank_d. Tasks on the critical path (those
// whose priority equals the maximum over all tasks, within tolerance) are
// pinned to the single machine that minimizes the total critical-path
// execution time; all other tasks are placed by earliest finish time with
// insertion, in priority order (highest first among ready tasks).
#pragma once

#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

Schedule cpop_schedule(const Workload& w);

}  // namespace sehc
