#include "se/allocation.h"

#include <algorithm>
#include <limits>

namespace sehc {

MachineCandidates::MachineCandidates(const Workload& w, std::size_t y_limit) {
  const std::size_t l = w.num_machines();
  y_ = (y_limit == 0 || y_limit > l) ? l : y_limit;
  flat_.reserve(w.num_tasks() * y_);
  for (TaskId t = 0; t < w.num_tasks(); ++t) {
    const auto sorted = w.machines_by_speed(t);
    flat_.insert(flat_.end(), sorted.begin(), sorted.begin() + y_);
  }
}

AllocationStats allocate_tasks(const Workload& w, const Evaluator& eval,
                               const MachineCandidates& candidates,
                               const std::vector<TaskId>& selected,
                               SolutionString& s, Rng& rng,
                               Evaluator::TrialBatch& batch) {
  AllocationStats stats;
  const TaskGraph& g = w.graph();
  std::vector<double> lens;  // per-candidate makespan at the scan position

  for (TaskId t : selected) {
    const std::size_t original_pos = s.position_of(t);
    const MachineId original_machine = s.machine_of(t);

    // Paper semantics: the subtask is placed at the best combination among
    // those TRIED (positions in the valid range x its Y best-matching
    // machines). The current configuration is only one of the combinations
    // when the current machine is inside the top-Y set; otherwise the task
    // is forcibly re-matched, which can move the schedule uphill — this is
    // the algorithm's escape from single-move local minima when Y < l.
    double best_len = std::numeric_limits<double>::infinity();
    std::size_t best_pos = original_pos;
    MachineId best_machine = original_machine;
    std::size_t ties = 0;  // reservoir size for uniform tie sampling

    const ValidRange range = s.valid_range(g, t);
    const std::span<const MachineId> machines = candidates.of(t);
    // Rolling checkpoint: trials at position pos permute only positions
    // >= pos, so the checkpoint starts at range.lo and is extended by one
    // segment every time the trial position advances — each trial simulates
    // only [pos, k) instead of [range.lo, k).
    eval.begin_trials(s, range.lo);
    s.move_task(t, range.lo);
    // At range.lo every machine candidate is simulated, in one SoA sweep
    // under the +infinity bound.
    batch.begin_checkpoint(s);
    for (const MachineId m : machines) batch.add_reassign(t, m);
    const std::vector<double>& first = batch.evaluate(best_len);
    lens.assign(first.begin(), first.end());
    for (std::size_t pos = range.lo;; ++pos) {
      stats.combinations_tried += machines.size();
      for (std::size_t j = 0; j < machines.size(); ++j) {
        const double len = lens[j];
        if (len < best_len) {
          best_len = len;
          best_pos = pos;
          best_machine = machines[j];
          ties = 1;
        } else if (len == best_len) {
          // Reservoir sampling: each of the n tied optima survives with
          // probability 1/n, giving a uniform choice without storing them.
          ++ties;
          if (rng.below(ties) == 0) {
            best_pos = pos;
            best_machine = machines[j];
          }
        }
      }
      if (pos == range.hi) break;
      s.move_task(t, pos + 1);
      // The segment that slid down into `pos` is now part of every
      // remaining trial's fixed prefix: fold it into the checkpoint.
      eval.extend_checkpoint(s);
      // Lane reuse. The new trials differ from the previous position's by
      // swapping t with the slid segment u, which shares no DAG edge with t
      // (both lie inside t's valid range). Unless t runs on u's machine,
      // that swap leaves every machine's task order unchanged, so the trial
      // repeats its last schedule bit for bit and keeps its last value.
      // Only the candidate on u's machine (at most one: candidates are
      // distinct) is simulated again. A kept value is exact, or +infinity
      // pruned under an earlier incumbent, which is no lower than best_len:
      // the incumbent only falls within one task's scan. Where a
      // re-simulation pruned at best_len would return an exact value, the
      // kept value is that value; where it would prune, the kept value also
      // exceeds best_len and fails both comparisons above. Every kept
      // combination still counts as one trial.
      const MachineId slid = s.segment(pos).machine;
      const auto lane = std::find(machines.begin(), machines.end(), slid);
      std::size_t simulated = 0;
      if (lane != machines.end()) {
        s.set_machine(t, slid);
        lens[static_cast<std::size_t>(lane - machines.begin())] =
            eval.trial_makespan(s, best_len);
        s.set_machine(t, original_machine);
        simulated = 1;
      }
      eval.count_known_trials(machines.size() - simulated);
    }

    // Commit the winner (possibly the original placement).
    s.move_task(t, best_pos);
    s.set_machine(t, best_machine);
    if (best_pos != original_pos || best_machine != original_machine) {
      ++stats.tasks_moved;
    }
  }
  return stats;
}

}  // namespace sehc
