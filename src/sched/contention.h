// Communication-contention-aware schedule evaluation.
//
// The paper's model (like most list-scheduling work of its era) charges
// transfer times but lets any number of transfers overlap on a link. This
// extension re-times a solution under a stricter network model: machines
// remain fully connected, but each unordered machine-pair link carries one
// transfer at a time, serializing in a deterministic order (consumer's
// string position, then data item id).
//
// Useful for asking how robust a contention-free schedule is when the
// interconnect is the bottleneck: the contention makespan is always >= the
// base evaluator's makespan, and the gap widens with CCR.
#pragma once

#include "hc/workload.h"
#include "sched/encoding.h"

namespace sehc {

/// The makespan of `s` under serialized per-link communication.
double contention_makespan(const Workload& w, const SolutionString& s);

}  // namespace sehc
