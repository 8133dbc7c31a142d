// DLS — Dynamic Level Scheduling (Sih & Lee, IEEE TPDS 1993), a classic
// heterogeneous list scheduler contemporary with the paper's baselines.
//
// At each step, over all (ready task, machine) pairs, pick the pair with
// the maximum dynamic level
//
//   DL(t, m) = SL(t) - max(data_ready(t, m), machine_avail(m)) + delta(t, m)
//
// where SL is the static level (mean-execution upward rank without
// communication: upward_ranks(w, false) in heuristics/list_schedule.h) and
// delta(t, m) = mean_exec(t) - E[m][t] rewards machines that run t faster
// than average. Non-insertion semantics.
#pragma once

#include "hc/workload.h"
#include "sched/schedule.h"

namespace sehc {

Schedule dls_schedule(const Workload& w);

}  // namespace sehc
