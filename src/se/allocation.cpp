#include "se/allocation.h"

#include <limits>

namespace sehc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

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
  // Machine -> index among the scanned task's candidates, or kNoLane.
  constexpr std::size_t kNoLane = ~std::size_t{0};
  std::vector<std::size_t> lane_of(w.num_machines(), kNoLane);

  for (TaskId t : selected) {
    const std::size_t original_pos = s.position_of(t);
    const MachineId original_machine = s.machine_of(t);

    // Paper semantics: the subtask is placed at the best combination among
    // those TRIED (positions in the valid range x its Y best-matching
    // machines). The current configuration is only one of the combinations
    // when the current machine is inside the top-Y set; otherwise the task
    // is forcibly re-matched, which can move the schedule uphill — this is
    // the algorithm's escape from single-move local minima when Y < l.
    double best_len = kInf;
    std::size_t best_pos = original_pos;
    MachineId best_machine = original_machine;
    std::size_t ties = 0;  // reservoir size for uniform tie sampling

    const ValidRange range = s.valid_range(g, t);
    const std::span<const MachineId> machines = candidates.of(t);
    // The whole scan is one sweep. Trials at any position of the range
    // permute only positions >= range.lo, so the checkpoint sits there.
    // With t at range.lo, every machine candidate is one reassign lane.
    // Moving t up to pos swaps it with the segment at pos, which shares no
    // DAG edge with t (both lie inside t's valid range). Unless t runs on
    // that segment's machine, the swap leaves every machine's task order
    // unchanged, so the trial repeats its last schedule bit for bit and
    // keeps its last value. Only the candidate on that machine (at most
    // one: candidates are distinct) changes, and it gets a slide lane.
    eval.begin_trials(s, range.lo);
    s.move_task(t, range.lo);
    const std::span<const Segment> segs = s.segments();
    batch.begin_checkpoint(s);
    for (std::size_t j = 0; j < machines.size(); ++j) {
      batch.add_reassign(t, machines[j]);
      lane_of[machines[j]] = j;
    }
    for (std::size_t pos = range.lo + 1; pos <= range.hi; ++pos) {
      const MachineId slid = segs[pos].machine;
      if (lane_of[slid] != kNoLane) batch.add_slide(t, pos, slid);
    }
    // Every combination counts as one trial, swept or kept.
    eval.count_known_trials(machines.size() * range.size() - batch.size());
    // Every value is exact (no bound). One above best_len fails both
    // comparisons below, and so does a kept one: best_len only falls.
    const std::vector<double>& swept = batch.evaluate(kInf);
    lens.assign(swept.begin(), swept.begin() + machines.size());
    std::size_t next_slide = machines.size();
    for (std::size_t pos = range.lo; pos <= range.hi; ++pos) {
      if (pos > range.lo) {
        const std::size_t j = lane_of[segs[pos].machine];
        if (j != kNoLane) lens[j] = swept[next_slide++];
      }
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
    }

    for (const MachineId m : machines) lane_of[m] = kNoLane;

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
