// The final schedule record returned by every scheduler in the library:
// per-task machine assignment and start/finish times plus the makespan.
//
// Unlike SolutionString (which fixes non-insertion list-scheduling
// semantics), Schedule is representation-agnostic so insertion-based
// schedulers (HEFT/CPOP) can express their output too. validate.h checks a
// Schedule directly against the workload model.
#pragma once

#include <string>
#include <vector>

#include "hc/workload.h"
#include "sched/encoding.h"

namespace sehc {

struct Schedule {
  std::vector<MachineId> assignment;  // task -> machine
  std::vector<double> start;          // task -> start time
  std::vector<double> finish;         // task -> finish time
  double makespan = 0.0;

  std::size_t num_tasks() const { return assignment.size(); }

  /// Materializes a schedule from a solution string under the list
  /// evaluator's semantics.
  static Schedule from_solution(const Workload& w, const SolutionString& s);

  /// Per-machine task sequences ordered by start time.
  std::vector<std::vector<TaskId>> machine_sequences(
      std::size_t num_machines) const;

  /// Converts to the string encoding, keeping the assignment: the tasks by
  /// start time, ties in the graph's topological order, so a zero-duration
  /// predecessor that starts with its successor still comes first. For
  /// schedules produced by insertion, re-evaluating the string may yield a
  /// different (>= or <=) makespan; the string is still topologically valid
  /// because start times respect precedence.
  SolutionString to_solution(const Workload& w) const;
  /// As above with ties by task id: the same string wherever task ids are
  /// topological, as on generated workloads.
  SolutionString to_solution() const;
};

}  // namespace sehc
