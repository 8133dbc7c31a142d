// SE allocation step (paper §4.5).
//
// Constructive strategy: for each selected subtask (in ascending DAG-level
// order) enumerate every combination of (position within its valid moving
// range) x (machine among its Y best-matching machines) and commit a
// combination with the smallest overall schedule length. When several
// combinations tie at the minimum (plateaus are common in makespan
// landscapes), one of them is chosen uniformly at random — this is the
// "without being too greedy" ingredient of the paper's allocation (§3):
// tie moves never worsen the schedule but keep the search mobile instead of
// freezing in the first single-move local minimum it reaches.
//
// Each selected task's scan is one Evaluator::TrialBatch sweep on a
// checkpoint at the bottom of its valid range, so allocation performs no
// memory allocation per trial. Most combinations are not simulated at all.
// When the task slides one position up, it swaps with a segment that
// shares no DAG edge with it, so only the candidate on that segment's
// machine sees a machine order change; every other candidate's schedule,
// and so its makespan, repeats bit for bit. The sweep therefore holds one
// lane per machine candidate at the bottom of the range and one slide lane
// per later position whose slid segment runs on a candidate machine; the
// scan replays its comparisons over the lane values, reusing the rest and
// still counting every combination as one evaluator trial. The reservoir
// tie sampling, and with it every downstream random draw, is the same as
// simulating every combination.
//
// The Y parameter (paper §4.5, studied in Fig. 4) limits machine candidates
// per task to its Y fastest machines; Y = 0 or Y >= l means "all machines".
#pragma once

#include <span>
#include <vector>

#include "core/rng.h"
#include "hc/workload.h"
#include "sched/encoding.h"
#include "sched/evaluator.h"

namespace sehc {

/// Per-task machine candidates (each task's machines sorted by its
/// execution time, truncated to Y entries), computed once per run. A flat,
/// fixed-stride table: task t's Y best-matching machines live at
/// [t*y, (t+1)*y), one cache-friendly array instead of k heap vectors.
class MachineCandidates {
 public:
  MachineCandidates() = default;
  MachineCandidates(const Workload& w, std::size_t y_limit);

  /// Candidates of one task, in ascending execution-time order.
  std::span<const MachineId> of(TaskId t) const {
    return {flat_.data() + static_cast<std::size_t>(t) * y_, y_};
  }

  /// Effective Y (after clamping to the machine count).
  std::size_t y() const { return y_; }
  std::size_t num_tasks() const { return y_ == 0 ? 0 : flat_.size() / y_; }

 private:
  std::size_t y_ = 0;
  std::vector<MachineId> flat_;
};

/// Statistics for one allocation pass.
struct AllocationStats {
  std::size_t tasks_moved = 0;        // tasks whose placement changed
  /// (position, machine) combinations tried, simulated or reused; each
  /// counts as one evaluator trial.
  std::size_t combinations_tried = 0;
};

/// Re-places every task in `selected` (already level-ordered) at a best
/// (position, machine) combination, breaking ties uniformly at random via
/// `rng`. Mutates `s` in place; returns stats. Never increases the
/// makespan.
///
/// Each task's scan is one Evaluator::TrialBatch: all its machine
/// candidates at the bottom of its valid range, and at each later position
/// a slide lane for the candidate on the machine of the segment that slid
/// below the task; every other candidate keeps its previous value
/// (bit-identical to simulating every candidate at every position — winner,
/// reservoir tie statistics, RNG stream and trial counts all unchanged).
/// `batch` must be bound to `eval`; engines pass a persistent instance, so
/// a call allocates only two scratch vectors.
AllocationStats allocate_tasks(const Workload& w, const Evaluator& eval,
                               const MachineCandidates& candidates,
                               const std::vector<TaskId>& selected,
                               SolutionString& s, Rng& rng,
                               Evaluator::TrialBatch& batch);

}  // namespace sehc
