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
//
// GA and GSA build their first population with random_population() and
// make every pair of children with breed(), so both draw the same stream
// for the same mating.
#pragma once

#include <array>
#include <vector>

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

/// Replaces `pop` and `lengths` with `size` random chromosomes of the
/// evaluator's workload. For each in turn it draws a machine per task, then
/// a random topological order, then evaluates the chromosome (one trial).
/// Returns the index of the first shortest chromosome.
std::size_t random_population(const Evaluator& eval, std::size_t size,
                              Rng& rng, std::vector<SolutionString>& pop,
                              std::vector<double>& lengths);

/// One mating: builds children `ca` and `cb` of parents pop[ia] and pop[ib]
/// and returns their lengths. Draws, in order, the crossover coin, then
/// crossover() on heads or copies of the parents on tails; ca's mutation
/// coin, then on heads matching_mutation() and scheduling_mutation() of ca;
/// the same for cb. Then measures ca, then cb unless `measure_b` is false
/// (its length then reads NaN). A child costs one eval.makespan() when it
/// was crossed or its mutation changed it; otherwise it keeps its parent's
/// length and counts no trial. `ca` and `cb` must not alias a parent.
std::array<double, 2> breed(const Evaluator& eval,
                            const std::vector<SolutionString>& pop,
                            const std::vector<double>& lengths,
                            std::size_t ia, std::size_t ib,
                            double crossover_prob, double mutation_prob,
                            Rng& rng, SolutionString& ca, SolutionString& cb,
                            bool measure_b = true);

}  // namespace sehc
