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
// Trials are done by mutating the working string in place and restoring it,
// so allocation performs no memory allocation in the hot loop. The scan
// rides the evaluator's incremental engine: the checkpoint rolls forward as
// the trial position advances (each trial simulates only the suffix behind
// the current position) and trials are pruned exactly against the incumbent
// best length (strict inequality, so the reservoir tie sampling — and with
// it every downstream random draw — is untouched).
//
// Most combinations are not simulated at all. When the task slides one
// position up, it swaps with a segment that shares no DAG edge with it, so
// only the candidate on that segment's machine sees a machine order change;
// every other candidate's schedule, and so its makespan, repeats bit for
// bit. Each position after the first therefore re-simulates at most one
// candidate and reuses the rest, still counting every combination as one
// evaluator trial.
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
/// At the bottom of a task's valid range all its machine candidates form
/// one Evaluator::TrialBatch evaluated in a single SoA sweep; at each later
/// position one scalar trial re-simulates the candidate on the machine of
/// the segment that slid below the task, and every other candidate keeps
/// its previous value (bit-identical to simulating every candidate at every
/// position — winner, reservoir tie statistics, RNG stream and trial counts
/// all unchanged). `batch` must be bound to `eval`; engines pass a
/// persistent instance, so a call allocates only one Y-entry scratch.
AllocationStats allocate_tasks(const Workload& w, const Evaluator& eval,
                               const MachineCandidates& candidates,
                               const std::vector<TaskId>& selected,
                               SolutionString& s, Rng& rng,
                               Evaluator::TrialBatch& batch);

}  // namespace sehc
