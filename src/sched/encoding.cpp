#include "sched/encoding.h"

#include <algorithm>

#include "core/rng.h"
#include "dag/topo.h"

namespace sehc {

SolutionString::SolutionString(std::span<const TaskId> order,
                               std::span<const MachineId> assignment) {
  SEHC_CHECK(order.size() == assignment.size(),
             "SolutionString: order/assignment size mismatch");
  assign_order(order);
  for (Segment& s : segments_) s.machine = assignment[s.task];
}

void SolutionString::assign_order(std::span<const TaskId> order) {
  const std::size_t k = order.size();
  segments_.resize(k);
  pos_.assign(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    const TaskId t = order[i];
    SEHC_CHECK(t < k, "SolutionString: task id out of range");
    SEHC_CHECK(pos_[t] == k, "SolutionString: duplicate task in order");
    segments_[i] = Segment{t, 0};
    pos_[t] = i;
  }
}

void SolutionString::assign_crossover(const SolutionString& first,
                                      const SolutionString& second,
                                      std::size_t order_cut,
                                      std::size_t machine_cut) {
  const std::size_t k = first.size();
  SEHC_CHECK(second.size() == k, "assign_crossover: parent size mismatch");
  SEHC_CHECK(this != &first && this != &second,
             "assign_crossover: the child aliases a parent");
  SEHC_CHECK(order_cut <= k, "assign_crossover: order cut out of range");
  segments_.resize(k);
  pos_.assign(k, k);  // k marks a task not placed yet
  for (std::size_t i = 0; i < order_cut; ++i) {
    const Segment& s = first.segments_[i];
    SEHC_CHECK(s.task < k, "SolutionString: task id out of range");
    SEHC_CHECK(pos_[s.task] == k, "SolutionString: duplicate task in order");
    const MachineId m = s.task < machine_cut
                            ? s.machine
                            : second.segments_[second.pos_[s.task]].machine;
    segments_[i] = Segment{s.task, m};
    pos_[s.task] = i;
  }
  std::size_t next = order_cut;
  for (const Segment& s : second.segments_) {
    SEHC_CHECK(s.task < k, "SolutionString: task id out of range");
    if (pos_[s.task] != k) continue;  // taken from first's prefix
    const MachineId m = s.task < machine_cut
                            ? first.segments_[first.pos_[s.task]].machine
                            : s.machine;
    segments_[next] = Segment{s.task, m};
    pos_[s.task] = next++;
  }
  SEHC_CHECK(next == k,
             "assign_crossover: parents are not permutations of one task set");
}

const Segment& SolutionString::segment(std::size_t pos) const {
  SEHC_CHECK(pos < segments_.size(), "SolutionString::segment: out of range");
  return segments_[pos];
}

std::size_t SolutionString::position_of(TaskId t) const {
  SEHC_CHECK(t < pos_.size(), "SolutionString::position_of: bad task");
  return pos_[t];
}

MachineId SolutionString::machine_of(TaskId t) const {
  return segments_[position_of(t)].machine;
}

std::vector<TaskId> SolutionString::order() const {
  std::vector<TaskId> out(segments_.size());
  for (std::size_t i = 0; i < segments_.size(); ++i) out[i] = segments_[i].task;
  return out;
}

std::vector<MachineId> SolutionString::assignment() const {
  std::vector<MachineId> out(segments_.size());
  for (const Segment& s : segments_) out[s.task] = s.machine;
  return out;
}

void SolutionString::set_machine(TaskId t, MachineId m) {
  segments_[position_of(t)].machine = m;
}

void SolutionString::move_task(TaskId t, std::size_t new_pos) {
  const std::size_t old_pos = position_of(t);
  SEHC_CHECK(new_pos < segments_.size(), "move_task: position out of range");
  const Segment moving = segments_[old_pos];
  // Shift the segments between the two positions one step towards old_pos,
  // fixing each shifted task's position in the same pass. At most one of
  // the two loops runs.
  for (std::size_t i = old_pos; i < new_pos; ++i) {
    segments_[i] = segments_[i + 1];
    pos_[segments_[i].task] = i;
  }
  for (std::size_t i = old_pos; i > new_pos; --i) {
    segments_[i] = segments_[i - 1];
    pos_[segments_[i].task] = i;
  }
  segments_[new_pos] = moving;
  pos_[t] = new_pos;
}

ValidRange SolutionString::valid_range(const TaskGraph& g, TaskId t) const {
  SEHC_CHECK(g.num_tasks() == segments_.size(),
             "valid_range: graph/string size mismatch");
  const std::size_t k = segments_.size();
  const std::size_t p = position_of(t);

  // Latest predecessor / earliest successor positions in the current string.
  std::ptrdiff_t last_pred = -1;
  std::size_t first_succ = k;
  for (TaskId u : g.preds(t)) {
    last_pred = std::max(last_pred, static_cast<std::ptrdiff_t>(pos_[u]));
  }
  for (TaskId v : g.succs(t)) first_succ = std::min(first_succ, pos_[v]);

  // Convert to final positions after removing t: indices above p shift down
  // by one, and reinsertion at removed-index q lands at final position q.
  const std::size_t lo =
      last_pred < 0 ? 0
                    : (static_cast<std::size_t>(last_pred) < p
                           ? static_cast<std::size_t>(last_pred) + 1
                           : static_cast<std::size_t>(last_pred));
  const std::size_t hi =
      first_succ == k ? k - 1 : (first_succ < p ? first_succ : first_succ - 1);
  SEHC_ASSERT_MSG(lo <= hi, "valid_range: empty range implies invalid string");
  return ValidRange{lo, hi};
}

bool SolutionString::is_valid(const TaskGraph& g) const {
  if (segments_.size() != g.num_tasks()) return false;
  return is_topological_order(g, order());
}

SolutionString random_initial_solution(const TaskGraph& g,
                                       std::size_t num_machines, Rng& rng) {
  const auto order = topological_order(g);
  SEHC_CHECK(order.has_value(), "random_initial_solution: cyclic graph");
  SolutionString s;
  random_initial_solution(g, *order, num_machines, rng, s);
  return s;
}

void random_initial_solution(const TaskGraph& g,
                             std::span<const TaskId> topo_order,
                             std::size_t num_machines, Rng& rng,
                             SolutionString& out) {
  SEHC_CHECK(num_machines > 0, "random_initial_solution: no machines");
  SEHC_CHECK(topo_order.size() == g.num_tasks(),
             "random_initial_solution: order/graph size mismatch");
  const std::size_t k = g.num_tasks();

  // The topological order, then a random machine per task drawn in task-id
  // order (the order consumes no draws, so this is the paper's "random
  // assignment, then topological sort").
  out.assign_order(topo_order);
  for (TaskId t = 0; t < k; ++t)
    out.set_machine(t, static_cast<MachineId>(rng.below(num_machines)));

  // Perturb with a random number of random valid-range moves (paper §4.2).
  const std::size_t moves = k == 0 ? 0 : rng.below(2 * k + 1);
  for (std::size_t i = 0; i < moves; ++i) {
    const TaskId t = static_cast<TaskId>(rng.below(k));
    const ValidRange range = out.valid_range(g, t);
    const std::size_t target =
        range.lo + static_cast<std::size_t>(rng.below(range.size()));
    out.move_task(t, target);
  }
}

}  // namespace sehc
