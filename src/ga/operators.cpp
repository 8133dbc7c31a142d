#include "ga/operators.h"

#include <algorithm>
#include <limits>

#include "dag/topo.h"

namespace sehc {

namespace {

/// Length of a child that started as `parent` (length `parent_len`): one
/// eval.makespan() when it was crossed, or when its mutation changed it.
double child_makespan(const Evaluator& eval, const SolutionString& child,
                      bool crossed, bool mutated,
                      const SolutionString& parent, double parent_len) {
  if (crossed || (mutated && child != parent)) return eval.makespan(child);
  return parent_len;
}

}  // namespace

void crossover(const SolutionString& a, const SolutionString& b, Rng& rng,
               SolutionString& ca, SolutionString& cb) {
  SEHC_CHECK(a.size() == b.size() && !a.empty(), "crossover: size mismatch");
  SEHC_CHECK(&ca != &cb, "crossover: the children alias each other");
  const std::size_t k = a.size();
  // Scheduling cut over string positions, in [1, k-1] (1 when k == 1).
  const std::size_t order_cut =
      1 + static_cast<std::size_t>(rng.below(k > 1 ? k - 1 : 1));
  // Matching cut over task ids, in [1, k]: tasks >= the cut swap machines.
  const std::size_t machine_cut = 1 + static_cast<std::size_t>(rng.below(k));
  ca.assign_crossover(a, b, order_cut, machine_cut);
  cb.assign_crossover(b, a, order_cut, machine_cut);
}

void matching_mutation(SolutionString& s, std::size_t num_machines, Rng& rng) {
  SEHC_CHECK(!s.empty(), "matching_mutation: empty string");
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  s.set_machine(t, static_cast<MachineId>(rng.below(num_machines)));
}

void scheduling_mutation(SolutionString& s, const TaskGraph& g, Rng& rng) {
  SEHC_CHECK(!s.empty(), "scheduling_mutation: empty string");
  const TaskId t = static_cast<TaskId>(rng.below(s.size()));
  const ValidRange range = s.valid_range(g, t);
  const std::size_t pos =
      range.lo + static_cast<std::size_t>(rng.below(range.size()));
  s.move_task(t, pos);
}

std::size_t random_population(const Evaluator& eval, std::size_t size,
                              Rng& rng, std::vector<SolutionString>& pop,
                              std::vector<double>& lengths) {
  const Workload& w = eval.workload();
  pop.clear();
  lengths.clear();
  pop.reserve(size);
  lengths.reserve(size);
  std::vector<MachineId> assignment(w.num_tasks());
  for (std::size_t i = 0; i < size; ++i) {
    for (MachineId& m : assignment)
      m = static_cast<MachineId>(rng.below(w.num_machines()));
    const auto order = random_topological_order(w.graph(), rng);
    SEHC_CHECK(order.has_value(), "random_population: cyclic graph");
    pop.emplace_back(*order, assignment);
    lengths.push_back(eval.makespan(pop.back()));
  }
  return static_cast<std::size_t>(
      std::min_element(lengths.begin(), lengths.end()) - lengths.begin());
}

std::array<double, 2> breed(const Evaluator& eval,
                            const std::vector<SolutionString>& pop,
                            const std::vector<double>& lengths,
                            std::size_t ia, std::size_t ib,
                            double crossover_prob, double mutation_prob,
                            Rng& rng, SolutionString& ca, SolutionString& cb,
                            bool measure_b) {
  const Workload& w = eval.workload();
  const bool crossed = rng.chance(crossover_prob);
  if (crossed) {
    crossover(pop[ia], pop[ib], rng, ca, cb);
  } else {
    ca = pop[ia];
    cb = pop[ib];
  }
  const auto mutate = [&](SolutionString& child) {
    if (!rng.chance(mutation_prob)) return false;
    matching_mutation(child, w.num_machines(), rng);
    scheduling_mutation(child, w.graph(), rng);
    return true;
  };
  const bool mutated_a = mutate(ca);
  const bool mutated_b = mutate(cb);
  const double len_a =
      child_makespan(eval, ca, crossed, mutated_a, pop[ia], lengths[ia]);
  const double len_b =
      measure_b
          ? child_makespan(eval, cb, crossed, mutated_b, pop[ib], lengths[ib])
          : std::numeric_limits<double>::quiet_NaN();
  return {len_a, len_b};
}

}  // namespace sehc
