// Genetic operators for the GA baseline, following Wang, Siegel,
// Roychowdhury & Maciejewski (JPDC 1997) — reference [3] of the paper.
//
// Wang et al. encode a chromosome as two strings (a matching string and a
// scheduling string). Our SolutionString carries the same information in
// one string of (task, machine) segments — the representation the SE paper
// itself adopts (§4.1, "we combine both strings in only one string") — so
// the operators below act on the corresponding component:
//
//   * crossover           — Wang et al.'s scheduling crossover followed by
//     their matching crossover, built in one pass. The scheduling half cuts
//     the string once: each child keeps one parent's prefix and reorders
//     the remaining tasks in the other parent's relative order. Both
//     parents being topological orders, the result is one too (standard
//     order-crossover-on-DAG argument). The matching half cuts the task
//     ids once: tasks at or above the cut swap machine assignments between
//     the two children.
//   * matching mutation   — one task is reassigned to a random machine.
//   * scheduling mutation — one task is moved to a random position inside
//     its valid range (precedence-preserving by construction).
#pragma once

#include "core/rng.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"

namespace sehc {

/// Crosses `a` and `b` into `ca` and `cb`, reusing the children's storage.
/// Draws the scheduling cut, then the matching cut. `a`, `b`, `ca` and `cb`
/// must be four distinct strings, except that `a` may be `b`.
void crossover(const SolutionString& a, const SolutionString& b, Rng& rng,
               SolutionString& ca, SolutionString& cb);

/// Reassigns one uniformly chosen task to a uniformly chosen machine.
void matching_mutation(SolutionString& s, std::size_t num_machines, Rng& rng);

/// Moves one uniformly chosen task to a uniform position in its valid range.
void scheduling_mutation(SolutionString& s, const TaskGraph& g, Rng& rng);

/// Length of a GA/GSA child that started as `parent` (length `parent_len`)
/// and may have been crossed and mutated: one eval.makespan() when it was
/// crossed, or when its mutation changed it. An untouched clone, or one the
/// mutation left equal to its parent, keeps `parent_len` and counts no
/// trial.
double child_makespan(const Evaluator& eval, const SolutionString& child,
                      bool crossed, bool mutated,
                      const SolutionString& parent, double parent_len);

}  // namespace sehc
