// Independent schedule validation.
//
// Re-checks a Schedule against the workload model from first principles,
// without trusting any evaluator: non-negative times, correct durations,
// machine exclusivity, and precedence with inter-machine communication
// delays. Tests run every scheduler's output through this.
//
// The checks are exact, with no tolerance, so they hold at any time scale:
// every scheduler computes finish = start + E[m][t] and
// start >= finish(src) + Tr with the same double operations this file
// repeats, and the makespan is the largest finish.
#pragma once

#include <string>
#include <vector>

#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

/// Returns a list of human-readable violations; empty means valid.
std::vector<std::string> validate_schedule(const Workload& w,
                                           const Schedule& s);

}  // namespace sehc
