#include "ga/operators.h"

namespace sehc {

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

double child_makespan(const Evaluator& eval, const SolutionString& child,
                      bool crossed, bool mutated,
                      const SolutionString& parent, double parent_len) {
  if (crossed || (mutated && child != parent)) return eval.makespan(child);
  return parent_len;
}

}  // namespace sehc
