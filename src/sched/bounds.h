// Makespan bounds used by tests (sanity envelopes) and by campaign records,
// which carry their instance's lower bound to contextualize heuristic
// quality.
#pragma once

#include "hc/workload.h"

namespace sehc {

/// Critical-path bound: longest path through the DAG where every task costs
/// its minimum execution time and communication is free. No schedule can
/// beat this.
double critical_path_lower_bound(const Workload& w);

/// Work bound: sum over tasks of the minimum execution time, divided by the
/// number of machines. Total busy time is at least the numerator, so some
/// machine is busy at least this long.
double work_lower_bound(const Workload& w);

/// max(critical_path_lower_bound, work_lower_bound).
double makespan_lower_bound(const Workload& w);

/// Serial upper bound: run the whole application on the single machine with
/// the smallest total execution time (communication vanishes on a single
/// machine). Always achievable, so the optimum is at most this.
double serial_upper_bound(const Workload& w);

}  // namespace sehc
